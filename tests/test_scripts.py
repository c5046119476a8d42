import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def checkout_env():
    """The caller's environment with this checkout's `src/` first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_python(*args, timeout=300):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, env=checkout_env(),
                          timeout=timeout)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def console_script(name):
    """(module, attribute) of `[project.scripts] name` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = spec.partition(":")
    return module.strip(), attr.strip()


def flip_not_circuit(tmp_path):
    circuit = tmp_path / "c.cgm"
    circuit.write_text("flip(1/2) ; not\n")
    return circuit


def test_axiom_suite_script(tmp_path):
    out = tmp_path / "axioms.json"
    proc = run_script("run_axiom_suite.py", "--trials", "3", "--seed", "5",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["trials"] == 3
    assert all(not r["failures"] for r in payload["reports"])
    assert "43/43 schemas sound" in proc.stdout


def test_roundtrip_script():
    proc = run_script("normal_form_roundtrip.py", "--count", "15", "--seed", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "15 circuits round-tripped exactly" in proc.stdout


def test_console_entry_point(tmp_path):
    # run the declared console script the way an installer's wrapper does,
    # so the check needs no `cgm` executable on PATH
    module, attr = console_script("cgm")
    wrapper = (f"import sys\n"
               f"from {module} import {attr.split('.')[0]}\n"
               f"sys.argv[0] = 'cgm'\n"
               f"sys.exit({attr}())\n")
    proc = run_python("-c", wrapper, "eval", str(flip_not_circuit(tmp_path)),
                      "--format", "json", timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["outWord"] == "B"


@pytest.mark.skipif(shutil.which("cgm") is None,
                    reason="cgm executable not on PATH")
def test_installed_cgm_executable(tmp_path):
    proc = subprocess.run(["cgm", "eval", str(flip_not_circuit(tmp_path)),
                           "--format", "json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["outWord"] == "B"


DEEP_FILES = {
    "chain": "flip(1/3)" + " ; not" * 2999 + "\n",                 # 3,000 stages
    "parens": "flip(1/3)" + " ; (not" * 600 + ")" * 600 + "\n",   # 600 nested
}


# SHA-256 of stdout, pinned from the recursive parser and exporters run
# under a raised recursion limit.  `render --format json` of the chain is
# left out: its indented text grows with depth squared (308 MB).
@pytest.mark.parametrize("name, verb, digest", [
    ("chain", ["eval"],
     "48e19f2a5f6128a3f0df1a248cfd93f82989ca168da255b7ceddd9948a4823b1"),
    ("chain", ["normalize"],
     "fc5d1b78cabc854e983a40bad99596a4f182d2cb31902c95fc3d24c572b05920"),
    ("chain", ["render", "--format", "dot"],
     "03d0d0a769e68904c7068f5cfb4ba41eca4ace1ac2ad1823dbd4fe98e2cf4496"),
    ("parens", ["eval"],
     "7c5ae3ad47775a5846ed8ba99d9775869ec771367b10186ff398dc87e27bc51d"),
    ("parens", ["normalize"],
     "311c916fe91bf686851638d22967cdaabe0887f358beaffccf6af92ba35fd2c0"),
    ("parens", ["render", "--format", "json"],
     "4e6ab1c30e1174789e9dae8bd71a63c51a03ea97b5a595fe8e97c0125aaad5f7"),
    ("parens", ["render", "--format", "dot"],
     "5b10bf59bbb8088532631e4857a12a5a445d2d1e435c34c89458270e0133a9cb"),
])
def test_deep_files_at_the_default_recursion_limit(tmp_path, name, verb, digest):
    path = tmp_path / f"{name}.cgm"
    path.write_text(DEEP_FILES[name])
    proc = run_python("-m", "cgm.cli", *verb, str(path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_let_shared_file_evaluates_in_linear_time(tmp_path):
    # 2^30 `not` gates in 31 distinct nodes: about 0.3 s on a 2-vCPU x86-64,
    # where a walk per occurrence would take hours.
    path = tmp_path / "doubled.cgm"
    path.write_text("let x0 = not in "
                    + "".join(f"let x{i} = x{i - 1} ; x{i - 1} in " for i in range(1, 31))
                    + "flip(1/3) ; x30\n")
    start = time.perf_counter()
    proc = run_python("-m", "cgm.cli", "eval", str(path), timeout=120)
    took = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert "weight=2/3 boolOut=0" in proc.stdout
    assert took < 10


def test_numpy_is_loaded_only_by_sampling(tmp_path):
    path = tmp_path / "gate.cgm"
    path.write_text("flip(1/2) * stdnormal")
    code = "\n".join((
        "import sys, cgm",
        "from cgm.cli import main",
        "assert 'numpy' not in sys.modules, 'import cgm'",
        f"assert main(['eval', {str(path)!r}]) == 0",
        "assert 'numpy' not in sys.modules, 'cgm eval'",
        f"assert main(['sample', {str(path)!r}, '-n', '1']) == 0",
        "assert 'numpy' in sys.modules, 'cgm sample'"))
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
