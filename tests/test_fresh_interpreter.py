"""Sampling commands run in a fresh interpreter, as the command line runs them.

The CLI starts one interpreter per command, so what a command imports is
paid on every call: drawing class members must not load numpy.random,
building a class space must not load numpy.ma (np.unique without
return_index does, through np.ma.is_masked), and only the oracle
subcommands load oracle (and fractions and decimal with it). Ranking on
helper threads must not load concurrent.futures (about 10 ms, mostly
logging) or multiprocessing. And stdout for a seed must not depend on the
interpreter's string-hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import symrig
from test_phases import PHASE_PROBLEMS

SRC = str(Path(symrig.__file__).resolve().parent.parent)


def _run(script: str, hash_seed: str = "0") -> str:
    """stdout of script in a new interpreter that imports symrig from this tree."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_sampling_commands_leave_numpy_random_unloaded():
    script = """
import contextlib, io, sys
from symrig.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["analyze", "--fixture", "k33_phi_a"]) == 0
    assert main(["sample", "--count", "3", "--fixture", "k33_phi_a"]) == 0
print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
"""
    assert _run(script).strip() == "[]"


def test_only_the_oracle_commands_load_oracle():
    script = """
import contextlib, io, sys
import symrig
from symrig.cli import main
unloaded = ("symrig.oracle", "fractions", "decimal")
with contextlib.redirect_stdout(io.StringIO()):
    for fixture in ("k33_phi_a", "c9_c3"):
        for command in (["analyze"], ["sample", "--count", "3"], ["basis"], ["empty-check"], ["types"], ["svg"]):
            assert main([*command, "--fixture", fixture]) == 0, (command, fixture)
    loaded = [name for name in unloaded if name in sys.modules]
    assert main(["oracle", "types", "--fixture", "c4_gadget"]) == 0
print(loaded, "symrig.oracle" in sys.modules, symrig.kernel_oracle is symrig.oracle.kernel_oracle)
"""
    assert _run(script).strip() == "[] True True"


def test_class_space_commands_leave_numpy_ma_unloaded():
    script = """
import contextlib, io, sys
from symrig.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for fixture in ("k33_phi_a", "c9_c3", "k4_upsilon_a"):
        assert main(["basis", "--fixture", fixture]) == 0
        assert main(["analyze", "--fixture", fixture]) == 0
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""
    assert _run(script).strip() == "[]"


def test_ranking_on_helper_threads_loads_no_pool_module(tmp_path):
    path = tmp_path / "c3_space.json"
    path.write_text(json.dumps(PHASE_PROBLEMS["c3_space"]), encoding="utf-8")
    script = f"""
import contextlib, io, sys, threading
from symrig import rigidity
from symrig.cli import main
rigidity._cpu_count = lambda: 2
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self) or start(self)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["analyze", "--problem", {str(path)!r}]) == 0
    assert main(["sample", "--count", "20", "--problem", {str(path)!r}]) == 0
print(len(started) >= 2, [name for name in ("concurrent.futures", "logging", "multiprocessing") if name in sys.modules])
"""
    assert _run(script).strip() == "True []"


def test_stdout_does_not_depend_on_the_hash_seed():
    script = """
from symrig.cli import main
for fixture in ("k33_phi_a", "gt_c2", "k4_upsilon_a"):
    main(["analyze", "--fixture", fixture, "--seed", "9"])
    main(["sample", "--count", "4", "--fixture", fixture, "--seed", "9"])
"""
    first, second = _run(script, "1"), _run(script, "2718")
    assert first.count('"witness"') == 3 and first.count('"samples"') == 3
    assert first == second
