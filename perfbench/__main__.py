"""python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Runs the benchmark against the tenseg sources in ./src of the checkout
the package sits in; exits 2 without a result when they are missing.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "tenseg" / "__init__.py").is_file():
    print(f"perfbench: no tenseg sources under {_SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(_SRC))

from perfbench.run import main  # noqa: E402

sys.exit(main())
