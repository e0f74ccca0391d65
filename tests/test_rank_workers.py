"""Sampled members ranked on several worker threads against one.

rigidity_verdicts shares its rank chunks out over one thread per CPU, the
caller's and plain helpers. These checks patch the CPU count, so that they
run the same on any machine: verdicts, witnesses and CLI stdout must not
depend on the number of workers, a helper's error must reach the caller
with every helper joined, and a class whose members fit one chunk (every
fixture, and every class of the fixtures, cycle_cm and high_symmetry
workloads) must start no thread at all.
"""

import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from symrig import rigidity
from symrig.cli import main
from symrig.problem import fixture_names, parse_problem
from symrig.symspace import config_space_basis, draw_samples, sym_generic_verdict

from test_class_space_digest import _load_workloads
from test_phases import PHASE_PROBLEMS, _stdout

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    return _load_workloads()


@pytest.fixture(scope="module")
def problems(workloads):
    """A class cut into several chunks, and a 150-joint large_3d class."""
    return {"c3_space": PHASE_PROBLEMS["c3_space"],
            "c3_free_150": workloads.large_problem("c3_free_150", 150, random.Random(7)).data}


def count_threads(monkeypatch):
    """The threads started from here on, one entry each."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


def count_chunks(monkeypatch):
    """The lengths of the chunks rigidity_verdicts hands to phase_blocks from here on."""
    lengths = []
    blocks = rigidity.phase_blocks
    monkeypatch.setattr(rigidity, "phase_blocks", lambda *a: lengths.append(len(a[0])) or blocks(*a))
    return lengths


def mixed_stack(prob, count):
    """count members of the class, every third one moved onto the C3 axis, so that ranks differ within a chunk."""
    basis = config_space_basis(prob.graph, prob.group, prob.phi)
    coords = np.array([f.coords for f in draw_samples(basis, count, seed=3)])
    coords[::3, :, :2] = 0  # the axis projection of a member of a C3 class about z is a member too
    return basis, coords


@pytest.mark.parametrize("name, lengths", [("c3_space", [11, 9]), ("c3_free_150", [4] * 5)])
def test_a_chunk_holds_enough_members_to_rank_without_the_gil(name, lengths, problems, monkeypatch):
    prob = parse_problem(problems[name])
    basis = config_space_basis(prob.graph, prob.group, prob.phi)
    chunks = count_chunks(monkeypatch)
    sym_generic_verdict(basis, trials=20, seed=3)
    assert sorted(chunks, reverse=True) == lengths  # helpers may start before the caller
    # numpy's stacked SVD releases the GIL above 500 members x singular values: every chunk but the last crosses that
    assert lengths[0] * max(min(len(ph.ends), ph.columns) for ph in basis.phases) > 500


@pytest.mark.parametrize("name", ["c3_space", "c3_free_150"])
def test_same_verdict_on_one_worker_or_several(name, problems, monkeypatch):
    prob = parse_problem(problems[name])
    basis, coords = mixed_stack(prob, 40)
    started, chunks = count_threads(monkeypatch), count_chunks(monkeypatch)

    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 1)
    one = sym_generic_verdict(basis, trials=20, seed=3)
    one_stack = rigidity.rigidity_verdicts(prob.graph, coords, 1e-8, basis.phases)
    assert not started and len(chunks) > 3 and sum(chunks) == 60
    assert len({report.rank for report in one_stack}) == 2

    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 3)
    several = sym_generic_verdict(basis, trials=20, seed=3)
    several_stack = rigidity.rigidity_verdicts(prob.graph, coords, 1e-8, basis.phases)
    assert len(started) >= 2  # a helper or more in each call
    assert several.ranks == one.ranks and several.max_rank == one.max_rank
    assert several.witness.tobytes() == one.witness.tobytes()
    assert several_stack == one_stack


@pytest.mark.parametrize("command", [("analyze",), ("sample", "--count", "20")])
@pytest.mark.parametrize("name", ["c3_space", "c3_free_150"])
def test_cli_output_does_not_depend_on_the_workers(name, command, problems, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problems[name]), encoding="utf-8")
    argv = [*command, "--problem", str(path)]
    started = count_threads(monkeypatch)
    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 1)
    one = _stdout(argv)
    assert not started
    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 2)
    assert _stdout(argv) == one
    assert started


def test_many_workers_switching_often_fill_every_slot(problems, monkeypatch):
    # More workers than CPUs, and a thread switch every microsecond: a lost or misplaced chunk changes the ranks.
    prob = parse_problem(problems["c3_space"])
    basis, coords = mixed_stack(prob, 200)
    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 1)
    want = rigidity.rigidity_verdicts(prob.graph, coords, 1e-8, basis.phases)
    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 8)
    chunks, got = count_chunks(monkeypatch), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: got.extend(rigidity.rigidity_verdicts(prob.graph, coords, 1e-8,
                                                                                       basis.phases)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(chunks) > 8 and got == want


@pytest.mark.parametrize("where", ["third call", "a helper"])
def test_a_failing_rank_reaches_the_caller(where, problems, monkeypatch):
    basis, coords = mixed_stack(parse_problem(problems["c3_free_150"]), 20)
    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 2)
    before = threading.active_count()
    svd, calls, lock = np.linalg.svd, [], threading.Lock()

    def failing(*args, **kwargs):
        with lock:
            calls.append(threading.current_thread())
            fails = len(calls) == 3 if where == "third call" else calls[-1] is not threading.main_thread()
        if fails:
            raise FloatingPointError("svd failed")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(FloatingPointError, match="svd failed"):
        rigidity.rigidity_verdicts(basis.graph, coords, 1e-8, basis.phases)
    assert threading.active_count() == before
    assert any(t is not threading.main_thread() for t in calls)


def _fail_on_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a class that fits one chunk started a thread")

    monkeypatch.setattr(rigidity, "_cpu_count", lambda: 4)
    monkeypatch.setattr(threading, "Thread", refuse)


@pytest.mark.parametrize("name", fixture_names())
def test_a_fixture_starts_no_thread(name, monkeypatch):
    _fail_on_thread(monkeypatch)
    assert main(["analyze", "--fixture", name]) == 0


@pytest.mark.parametrize("workload", ["fixtures", "cycle_cm", "high_symmetry"])
def test_a_small_workload_starts_no_thread(workload, workloads, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the workload generator finds the fixtures relative to the tree
    manifest = json.loads(workloads.write(workloads.build(workload, 1), 1, tmp_path).read_text(encoding="utf-8"))
    _fail_on_thread(monkeypatch)
    for cmd in manifest["commands"]:
        assert main(cmd["argv"]) == cmd["expect"]["exit"], cmd["argv"]
    capsys.readouterr()
