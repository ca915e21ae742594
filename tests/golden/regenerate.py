"""Rewrite tests/golden/golden.json from the checkout's code; run from the
repository root, in the environment the tests run in:

    python tests/golden/regenerate.py

The digests are only compared under the build fingerprint recorded with
them, so the script refuses to overwrite a file recorded under another
fingerprint (say, with a different BLAS thread count) and prints both.
To record under a new fingerprint on purpose, delete golden.json first.
"""

import json
import os
import sys

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

import golden  # noqa: E402


def main() -> int:
    current = golden.build_fingerprint()
    if os.path.exists(golden.GOLDEN_PATH):
        with open(golden.GOLDEN_PATH, encoding="utf-8") as handle:
            recorded = json.load(handle)["fingerprint"]
        if recorded != current:
            print(f"error: {golden.GOLDEN_PATH} was recorded under another build fingerprint", file=sys.stderr)
            print(f"  recorded: {json.dumps(recorded, sort_keys=True)}", file=sys.stderr)
            print(f"  current:  {json.dumps(current, sort_keys=True)}", file=sys.stderr)
            print("delete the file first to record under the current fingerprint", file=sys.stderr)
            return 1
    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden.compute(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {golden.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
