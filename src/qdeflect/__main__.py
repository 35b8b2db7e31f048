"""`python -m qdeflect` and the `qdeflect` console script."""

import os
import sys


def entrypoint() -> None:
    # a CLI process makes one BLAS product at most, and an idle OpenBLAS
    # worker thread costs more CPU than it saves; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main  # after the line above: numpy reads it when first imported

    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
