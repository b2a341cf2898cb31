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
