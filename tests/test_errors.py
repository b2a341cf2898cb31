import pytest

from borderedfloer import (gradings, heegaard, hochschild, knots, pmc, strands,
                           structures)
from borderedfloer.errors import OneOf, Record, SchemaViolation, check, unique


def message(value, spec):
    with pytest.raises(SchemaViolation) as info:
        check(value, spec, "top")
    return str(info.value)


@pytest.mark.parametrize("value, spec", [
    (True, int), (1.0, int), ("1", int), (1, str), ([], dict), ({}, list),
    (True, (0, 1)), (1.0, (0, 1)), (2, (0, 1)), ("0", (0, 1)),
    (0, range(1, 3)), (3, range(1, 3)), (-1, range(1 << 63)),
    ("a", range(1 << 63)),
    ([1, 2, 3], [int, int]), ([1], [int, int])],
    ids=["bool-int", "float-int", "str-int", "int-str", "list-object",
         "object-list", "bool-value", "float-value", "other-value",
         "str-value", "below-range", "above-range", "negative-count",
         "str-count", "triple-pair", "single-pair"])
def test_check_never_coerces(value, spec):
    assert message(value, spec).startswith("top: expected ")


def test_check_accepts_and_returns_the_value():
    obj = {"a": [1, 2], "c": {"d": "x"}, "pair": [0, 1]}
    spec = {"a": [int], "b?": str, "c": {"d": ("x", "y")}, "pair": [(0, 1), (0, 1)]}
    assert check(obj, spec) is obj
    assert check(5, range(1 << 63)) == 5


def test_check_names_the_path():
    spec = {"ops": [{"inputs": [{"map": [[int, int]]}]}]}
    bad = {"ops": [{"inputs": [{"map": [[1, 2, 3]]}]}]}
    assert message(bad, spec) == \
        "top.ops[0].inputs[0].map[0]: expected a list of 2, got [1, 2, 3]"
    assert message({}, {"x": int}) == "top.x: missing"
    assert message({"x": 1, "y": 2}, {"x": int}) == "top.y: unknown key"
    assert message({"x": 1, "a\nb": 2}, {"x": int}) == \
        'top["a\\nb"]: unknown key'
    assert message({"x?": 1}, {"x?": int}) == 'top["x?"]: unknown key'


def test_an_empty_spec_rejects_every_value():
    # a module with no generators checks its op names against an empty OneOf
    for spec in (OneOf([]), (), range(1, 1)):
        for value in ("x", 0, None, []):
            assert message(value, spec).startswith("top: expected ")
    assert message("x", OneOf([])) == 'top: expected one of [], got "x"'


def test_top_level_errors_have_no_path():
    with pytest.raises(SchemaViolation, match="^expected an object, got 3$"):
        check(3, {"x": int})


def test_unique_names_the_repeat():
    unique(["a", "b"], "names")
    with pytest.raises(SchemaViolation, match=r'^names\[2\]: repeats "a"$'):
        unique(["a", "b", "a"], "names")


def _point():
    return heegaard.IntersectionPoint("x", 1, "arc", 1, 0)


# each record class: a function giving fresh field values (equal ones on
# every call, but distinct objects where the fields are records), and
# another value for its last field; psi and psi_inv are dicts in use, and
# the record does not look at field types
RECORDS = {
    pmc.PointedMatchedCircle: (lambda: [(1, 2, 1, 2), (1, 1, 0, 0)], (1, 0, 1, 0)),
    strands.StrandsBasisElement: (lambda: [pmc.genus1(), ((1, 3),)], ((2, 4),)),
    strands.StrandsElement: (lambda: [pmc.genus1(), frozenset({((1, 3),)})],
                             frozenset()),
    gradings.BorderedPartialPermutation: (lambda: [2, None, None, (2, 1)], (1, 2)),
    gradings.GradingGroupElement: (lambda: [0, (0, 0, 0)], (2, 0, 0)),
    gradings.RefinementData: (lambda: [pmc.genus1(), (1,), (), (), ()], (1,)),
    heegaard.IntersectionPoint: (lambda: ["x", 1, "arc", 1, 0], 1),
    heegaard.BorderedDiagram: (lambda: [1, None, pmc.genus1(), (_point(),), "d"],
                                "e"),
    heegaard.DiagramGenerator: (
        lambda: [(_point(),),
                 gradings.BorderedPartialPermutation(1, None, 1, (1,))],
        gradings.BorderedPartialPermutation(1, None, 1, (2,))),
    hochschild.HochschildGenerator: (lambda: ["x", 0, 0], 1),
    knots.Presentation: (lambda: [((1,),), ((0,),)], ((1,),)),
    structures.ModuleGenerator: (lambda: ["x", frozenset({1}), None, 0], 1),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, other = RECORDS[cls]
    a, b = cls(*fields()), cls(*fields())
    assert a == b and not a != b and hash(a) == hash(b)
    assert not hasattr(a, "__dict__")
    changed = fields()[:-1] + [other]
    assert cls(*changed) != a and a != cls(*changed)
    twin = type("Twin", (Record,),
                {"__slots__": cls._fields, "_fields": cls._fields})
    assert a != tuple(fields()) and a != twin(*fields()) and twin(*fields()) != a
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name, None))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
