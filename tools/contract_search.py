"""Seeded contract search over valid scenarios, longer than the tier-1 test.

    python tools/contract_search.py [--count 400] [--seed 1]

Run it from the repository root. It draws ``--count`` scenario documents
with ``tests/test_contract.scenario_doc`` from
``numpy.random.default_rng(--seed)`` and runs all 12 properties on each,
in process, as ``kframelab verify`` does. It prints:

- the counts of documents that validation rejects and of runs that end
  with exit 0, exit 1 and exit 2, and of runs that warned;
- the number of tracebacks: any other exception, which breaks the
  contract, printed with its case number;
- per property, the chunks it reran trial by trial, in two groups: a
  breakdown, where a trial's table holds the check ``breakdown``, and
  otherwise a split, where the chunk's trials took different branches;
- how many ``canonical-char`` chunks the partner certificate of
  ``characterizes`` decided, and how many ran the partner loop, with
  their case numbers;
- the runs that exit 1 by group: excluded, where the rank test of
  ``classify`` puts R(K) outside the range of the synthesis map on some
  trial; weak direction, where K keeps a singular value below
  sqrt(DEFAULT_TOL) of its largest; and other, which is a finding; each
  with its case numbers.

Exits 1 when a run ended in a traceback, else 0.
"""

import argparse
import math
import os
import sys
import traceback
import warnings
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from kframelab import duality, suites  # noqa: E402
from kframelab.frames import weighted_synthesis  # noqa: E402
from kframelab.hilbert import DEFAULT_TOL, _cut_ranks, range_inclusion  # noqa: E402
from kframelab.scenario import ScenarioError, build_frames, build_ks, build_space, scenario_from_dict  # noqa: E402
from test_contract import scenario_doc  # noqa: E402


def exit_one_group(scenario) -> str:
    """The group of a run that exits 1: ``excluded``, ``weak direction`` or
    ``other``, from its Ks and synthesis maps, trial by trial."""
    trials = range(scenario.trial_offset, scenario.trial_offset + scenario.trials)
    space = build_space(scenario)
    ks = build_ks(scenario, trials)
    maps = weighted_synthesis(build_frames(scenario, space, ks, trials))
    if not all(range_inclusion(k, b).included for k, b in zip(ks.op, maps)):
        return "excluded"
    s = np.linalg.svd(ks.op, compute_uv=False)
    weakest = s[np.arange(len(s)), np.maximum(_cut_ranks(s, ks.op.shape), 1) - 1]
    return "weak direction" if (weakest < math.sqrt(DEFAULT_TOL) * s[:, 0]).any() else "other"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=400, help="scenario documents to draw (default 400)")
    parser.add_argument("--seed", type=int, default=1, help="numpy seed of the documents (default 1)")
    args = parser.parse_args(argv)

    reruns = {pid: {"split": [], "breakdown": []} for pid in suites.PROPERTY_IDS}
    case = -1
    tables = suites._tables

    def watched(chunk, pid):
        pairs = tables(chunk, pid)
        if pairs[0][0] is not chunk:  # the property reran on the chunk's trials
            kind = "breakdown" if any("breakdown" in table.names for _, table in pairs) else "split"
            reruns[pid][kind].append(f"case {case} trials {chunk.indices[0]}-{chunk.indices[-1]}")
        return pairs

    certificates = {True: [], False: []}  # the case of each decided and each open chunk
    certified = duality._partners_certified

    def counted(*args):
        decided = certified(*args)
        certificates[decided].append(str(case))
        return decided

    suites._tables = watched
    duality._partners_certified = counted
    outcomes, groups = Counter(), {"excluded": [], "weak direction": [], "other": []}
    rng = np.random.default_rng(args.seed)
    try:
        for case in range(args.count):
            try:
                scenario = scenario_from_dict(scenario_doc(rng))
            except ScenarioError:
                outcomes["invalid"] += 1
                continue
            report = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    report = suites.run_suite(scenario)
                except ScenarioError:
                    outcomes["exit 2"] += 1
                except Exception:  # the contract's breach: count it, show it, go on
                    outcomes["tracebacks"] += 1
                    print(f"case {case}: traceback", file=sys.stderr)
                    traceback.print_exc()
                else:
                    outcomes["exit 0" if report.all_passed else "exit 1"] += 1
            outcomes["warned"] += bool(caught)
            if report is not None and not report.all_passed:
                groups[exit_one_group(scenario)].append(str(case))
    finally:
        suites._tables = tables
        duality._partners_certified = certified

    print(f"documents: {args.count}, seed {args.seed}")
    for key in ("invalid", "exit 0", "exit 1", "exit 2", "warned", "tracebacks"):
        print(f"{key}: {outcomes[key]}")
    print("chunks rerun trial by trial:")
    for pid, kinds in reruns.items():
        counts = (f"{len(chunks)} {kind}" + (f" ({'; '.join(chunks)})" if chunks else "") for kind, chunks in kinds.items())
        print(f"  {pid}: {', '.join(counts)}")
    opened = certificates[False]
    print(
        f"canonical-char partner certificate: {len(certificates[True])} chunks decided, "
        f"{len(opened)} ran the partner loop" + (f" (cases {', '.join(opened)})" if opened else "")
    )
    counts = (f"{len(cases)} {group}" + (f" (cases {', '.join(cases)})" if cases else "") for group, cases in groups.items())
    print(f"exit 1 by group: {', '.join(counts)}")
    return 1 if outcomes["tracebacks"] else 0


if __name__ == "__main__":
    sys.exit(main())
