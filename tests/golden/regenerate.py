"""Rewrite tests/golden/golden.json from the checkout's code; run from the
repository root, in the environment the tests run in:

    python tests/golden/regenerate.py

The digests are only compared under the build fingerprint recorded with
them, so the script refuses to overwrite a file recorded under another
fingerprint (say, with a different BLAS thread count) and prints both.
To record under a new fingerprint on purpose, delete golden.json first.

It prints one line per scenario and digest (each property's and the
report's) saying whether the digest was added, changed or kept, and one
per scenario that was removed, so a regeneration shows which bits moved.
"""

import json
import os
import sys

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

import golden  # noqa: E402


def _digests(scenario: dict) -> dict:
    """The digests of one scenario record, by property and ``report``."""
    out = {pid: prop["sha256"] for pid, prop in scenario["properties"].items()}
    out["report"] = scenario["report_sha256"]
    return out


def summary(before: dict, after: dict) -> list:
    """One line per scenario and digest of ``after``: added, changed or
    kept against ``before``; then one per scenario only ``before`` has."""
    lines = []
    for name, scenario in sorted(after.items()):
        old = _digests(before[name]) if name in before else {}
        for key, digest in sorted(_digests(scenario).items()):
            status = "added" if key not in old else "kept" if old[key] == digest else "changed"
            lines.append(f"{name} {key}: {status}")
    lines += [f"{name}: removed" for name in sorted(set(before) - set(after))]
    return lines


def main() -> int:
    current = golden.build_fingerprint()
    before = {}
    if os.path.exists(golden.GOLDEN_PATH):
        with open(golden.GOLDEN_PATH, encoding="utf-8") as handle:
            old = json.load(handle)
        recorded, before = old["fingerprint"], old["scenarios"]
        if recorded != current:
            print(f"error: {golden.GOLDEN_PATH} was recorded under another build fingerprint", file=sys.stderr)
            print(f"  recorded: {json.dumps(recorded, sort_keys=True)}", file=sys.stderr)
            print(f"  current:  {json.dumps(current, sort_keys=True)}", file=sys.stderr)
            print("delete the file first to record under the current fingerprint", file=sys.stderr)
            return 1
    computed = golden.compute()
    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(computed, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n".join(summary(before, computed["scenarios"])))
    print(f"wrote {golden.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
