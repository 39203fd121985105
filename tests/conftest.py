"""Set-up shared by every test module.

Test modules import numpy, and OpenBLAS sizes its worker pool once, when
numpy loads it.  Importing fpproj first loads numpy with one BLAS thread,
as it does for the command line, so the test process has one thread and
acceptance.run_suite runs its second pass in a forked child here too.
"""

import fpproj  # noqa: F401  (loads numpy with one BLAS thread)
