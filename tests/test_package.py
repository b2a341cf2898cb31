import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_import_needs_only_the_standard_library():
    # -S leaves site-packages off sys.path, so a third-party import fails
    code = ("import sys, borderedfloer\n"
            "print('\\n'.join({n.partition('.')[0] for n in sys.modules}))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    foreign = set(proc.stdout.split()) - set(sys.stdlib_module_names) \
        - {"borderedfloer", "__main__"}
    assert not foreign


def test_benchmark_tracing_targets_resolve():
    # perfbench/child.py wraps library functions by name in traced runs, so a
    # renamed function would only show there; the stub resolves each target
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import child\n"
            "class Stub:\n"
            "    def __init__(self):\n"
            "        self.names = []\n"
            "    def wrap(self, owner, attr, name, tag_of=None):\n"
            "        assert callable(getattr(owner, attr)), (owner, attr)\n"
            "        self.names.append(name)\n"
            "stub = Stub()\n"
            "child.install_tracing(stub)\n"
            "print(' '.join(stub.names))\n")
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, perfbench], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    assert names.count("structures.validate") == 5
    assert "structures.box_tensor" in names
