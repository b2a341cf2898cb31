"""In-memory spans around calls into the library's public functions.

A span is [name, tag, start, end, parent]: ``parent`` is the index of the
enclosing span in the same list, or -1.  Spans are only collected in traced
benchmark children; untraced children never import this module.
"""

from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name, tag=None):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, tag, 0.0, 0.0, parent]
        self.spans.append(rec)
        rec[2] = perf_counter()
        return rec

    def end(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, tag_of=None):
        """Replace ``owner.attr`` by a function that records one span a call.

        Callers inside the library that look the name up on the module (or
        class) at call time are traced too.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            rec = self.begin(name, tag_of(args) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)

        setattr(owner, attr, traced)


def layer_times(spans):
    """{key: (inclusive seconds, self seconds)} for one iteration's spans.

    ``key`` is the span name, and also ``name.tag`` for tagged spans.  The
    inclusive time counts only the outermost span of a key, so a call that
    re-enters its own layer is not counted twice.  A span's self time is its
    duration minus the durations of its direct children; spans of one thread
    nest, so the children are disjoint parts of the parent's interval.
    """
    child = [0.0] * len(spans)
    for name, tag, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, tag, start, end, parent) in enumerate(spans):
        keys = [name] if tag is None else [name, f"{name}.{tag}"]
        for key in keys:
            outermost = True
            p = parent
            while p >= 0:
                pname, ptag = spans[p][0], spans[p][1]
                if pname == name and (key == name or ptag == tag):
                    outermost = False
                    break
                p = spans[p][4]
            incl, own = out.get(key, (0.0, 0.0))
            out[key] = (incl + (end - start if outermost else 0.0),
                        own + (end - start) - child[i])
    return out
