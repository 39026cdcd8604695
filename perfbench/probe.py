"""Set-up probe, run as a fresh interpreter by run.py.

It imports numpy and complexchaos and, with ``--cold``, fills the lazy caches
a CLI run fills first: the Hermite table behind the rho = 1 certification and
one orbit table with its Hermite products.  Then it writes ``ready`` to
stdout; run.py times it from spawn to that line.
"""

import sys


def main() -> None:
    import numpy as np

    import complexchaos  # noqa: F401

    if "--cold" in sys.argv[1:]:
        from complexchaos import chaos, cli, hermite, kernels  # noqa: F401

        hermite.resolve_rho(6)
        chaos.expand(kernels.random_kernel(2, 2, 3, np.random.default_rng(0)))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
