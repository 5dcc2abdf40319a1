"""One set-up in a fresh process: import groupsobolev and build the groups.

Usage: python3 bench/setup_probe.py '<JSON list of group specs>'
Prints the seconds from before the import to after the last build. The
memory guard runs first, outside the timed part.
"""

import json
import sys
import time
from pathlib import Path

from sizing import check_budget

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    specs = json.loads(sys.argv[1])
    check_budget(specs)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import groupsobolev

    for spec in specs:
        groupsobolev.make_group(dict(spec))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
