"""A catalogue of mutants of `src/dcnsim` and the tests that should kill each.

Run from anywhere:  python tests/mutants.py

Each mutant replaces one piece of source text in a temporary copy of
`src/`, then runs its listed test files (or single tests) against that
copy with `pytest -x -q`.  A mutant its tests fail on is killed; one
they pass survives.  A mutant marked equivalent changes nothing a test can reach,
and is listed so that no one hunts for a test that cannot exist.  The
script exits 1 if a mutant survives that is not marked equivalent, and 2
if the listed tests fail on the unmutated source.

Its file name does not match pytest's `test_*.py`, so the suite does not
collect it.  It imports the standard library only; the test runs it
starts use pytest and hypothesis, as the suite does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Runs pytest with hypothesis told not to shrink a failing example: a kill
# needs only the failure, and shrinking one can take a minute.  Nor does it
# store the mutant's failures where a later run of the suite replays them.
PYTEST = """
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


class Mutant(NamedTuple):
    module: str  # file name under src/dcnsim
    source: str  # text that occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # test files or test ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it, if none can


CATALOGUE = (
    # A set that needs exactly every core, or exactly the cores its agg
    # positions reach, is feasible.
    Mutant("routing.py", "too_many = has_core & (need[:, core_row] > tree.num_cores)",
           "too_many = has_core & (need[:, core_row] >= tree.num_cores)",
           ("tests/test_routing.py",)),
    Mutant("routing.py", "unreachable = n_core > groups * half",
           "unreachable = n_core >= groups * half", ("tests/test_routing.py",)),
    Mutant("routing.py", "over = (sums > params.max_load())",
           "over = (sums >= params.max_load())", ("tests/test_routing.py",),
           equivalent="differs only at a load of exactly C * (1 + 1e-9)"),
    # A transfer window may end in the last slot, not past it.
    Mutant("simengine.py", "if tr.end >= horizon:", "if tr.end > horizon:",
           ("tests/test_simengine.py", "tests/test_cli.py")),
    # The strategy grid: opt_greedy merges, and only the pipeline draws.
    Mutant("assignment.py", '"opt_greedy": (_first_fit_assign, True),',
           '"opt_greedy": (_first_fit_assign, False),', ("tests/test_assignment.py",)),
    Mutant("assignment.py", "if placer is _pipeline_assign",
           "if placer is _first_fit_assign", ("tests/test_simengine.py",)),
    # A loaded report adds up, and no number literal stands for infinity.
    Mutant("simengine.py", "per_timeslot_watts)) != report.total_energy_wt:",
           "per_timeslot_watts)) == report.total_energy_wt:", ("tests/test_cli.py",)),
    Mutant("simengine.py", "if figure < 0:", "if figure < -1:", ("tests/test_cli.py",)),
    Mutant("workload.py", "if math.isinf(value := float(literal)):",
           "if math.isnan(value := float(literal)):",
           ("tests/test_cli.py",)),
    # Orders that decide placements and draws, each pinned against an oracle.
    Mutant("graphkit.py", "for v, cap in out_of_s.items():",
           "for v, cap in reversed(out_of_s.items()):",
           ("tests/test_differential.py::test_max_flow_matches_edmonds_karp",)),
    Mutant("graphkit.py", "return np.sqrt(np.add.reduce(gap * gap, axis=-1))",
           'return np.sqrt(np.einsum("...i,...i->...", gap, gap))',
           ("tests/test_differential.py::test_kmeans_distances_are_the_norm_bits",)),
    Mutant("assignment.py", "centers[best] = stack[members[best]].mean(axis=0)",
           "centers[best] += (stack[i] - centers[best]) / len(members[best])",
           ("tests/test_differential.py::test_clusters_match_the_list_mean_oracle",)),
    Mutant("routing.py", "[[seed, s] for s in t]", "[[seed, j] for j, s in enumerate(t)]",
           ("tests/test_differential.py::test_the_batch_budget_never_changes_a_report",)),
    # A failed batch is replayed set by set whether or not on_plan is given.
    Mutant("simengine.py", "if len(batch) > 1:", "if len(batch) > 1 and on_plan is not None:",
           ("tests/test_differential.py::test_segment_loop_matches_the_per_slot_loop",)),
    # The too-wide pod named is the one the set's items reach first.
    Mutant("routing.py", "pod = int(rows[np.isin(rows, wide_rows)][0]) % per_set",
           "pod = int(wide_rows[0]) % per_set",
           ("tests/test_differential.py::test_a_too_wide_pod_is_named_by_its_first_item",)),
    # The array passes: rack-graph adjacency in ascending order, k-means++'s
    # fallback over the unchosen rows, the demand table's source VM from the
    # entry's row, and a retried set's plan spliced into the batch's arrays.
    Mutant("graphkit.py", "near = row.nonzero()[0]", "near = row.nonzero()[0][::-1]",
           ("tests/test_differential.py::test_partition_matches_the_ix_reference",)),
    Mutant("graphkit.py", "remaining = (~taken).nonzero()[0]", "remaining = np.arange(n)",
           ("tests/test_differential.py::test_kmeans_seeding_matches_per_pair_norms",)),
    Mutant("workload.py", "row, col = np.divmod(e, n)", "col, row = np.divmod(e, n)",
           ("tests/test_differential.py::test_demand_table_matches_the_unit_by_unit_oracle",)),
    Mutant("routing.py", "shift = len(part) - (hi - lo)", "shift = 0",
           ("tests/test_differential.py::test_segment_loop_matches_the_per_slot_loop",)),
)


def fails(tests, mutant: Mutant | None = None) -> bool:
    """Whether `tests` fail on a copy of src/, carrying `mutant` if given.
    The copy holds no bytecode, so no stale cache can hide a mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "dcnsim" / mutant.module
            text = path.read_text()
            if text.count(mutant.source) != 1:
                raise SystemExit(f"{mutant.module}: {mutant.source!r} does not occur once")
            path.write_text(text.replace(mutant.source, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return run.returncode != 0


def main() -> int:
    started = time.perf_counter()
    # Tests that fail on the code as it is would count every mutant killed.
    if fails(sorted({test for mutant in CATALOGUE for test in mutant.tests})):
        print("the catalogue's tests fail on the unmutated source")
        return 2
    unexpected = 0
    for mutant in CATALOGUE:
        start = time.perf_counter()
        status = "killed" if fails(mutant.tests, mutant) else "surviving"
        if status == "surviving" and not mutant.equivalent:
            unexpected += 1
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{status:9} {time.perf_counter() - start:5.1f} s  {mutant.module}: "
              f"{mutant.source} -> {mutant.replacement}{note}", flush=True)
    print(f"{len(CATALOGUE)} mutants in {time.perf_counter() - started:.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
