"""Time one cold start of lpvslc: its imports plus building the benchmark plant.

Run in a fresh interpreter (the benchmark starts one per sample) with the
package on PYTHONPATH; prints the seconds as its last line.
"""

from time import perf_counter

START = perf_counter()

import lpvslc.cli  # noqa: E402  (imports every layer of the package)
from lpvslc.plant import benchmark_plant  # noqa: E402

benchmark_plant()
print(repr(perf_counter() - START))
