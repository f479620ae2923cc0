"""Process set-up shared by the bench's entry points; import it first.

Pins every BLAS pool to one thread before numpy is first imported (the
bench is one single-threaded process) and imports shadowcover from the
checkout's ``src/``, never from an installed copy.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def load_library():
    """Import shadowcover from this checkout's ``src/``, and only from there."""
    if not (SRC / "shadowcover" / "__init__.py").is_file():
        raise SystemExit(f"bench: no shadowcover sources under {SRC}; "
                         "run from the root of a shadowcover checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shadowcover
    if Path(shadowcover.__file__).resolve().parent != (SRC / "shadowcover").resolve():
        raise SystemExit(f"bench: imported shadowcover from {shadowcover.__file__}, "
                         f"not from {SRC}")
    return shadowcover
