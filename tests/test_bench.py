import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_selftest_passes():
    _run("bench/selftest.py")


def test_tracer_finds_every_function_it_wraps():
    """``bench/spans.py`` wraps toolkit functions by name for ``--trace 1``;
    each of them must still exist."""
    _run("-c", "import sys; sys.path[:0] = ['src', 'bench']\n"
               "import fullgroups, spans\n"
               "tracer = spans.Tracer()\n"
               "tracer.install()\n"
               "tracer.uninstall()\n")
