"""Rewrite tests/golden/golden.json from the checkout's code; run from the
repository root, in the environment the tests run in:

    python tests/golden/regenerate.py

The digests are only compared under the build fingerprint recorded with
them, so regenerate under the BLAS thread count the tests see.
"""

import json
import os
import sys

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

import golden  # noqa: E402


def main() -> int:
    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden.compute(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {golden.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
