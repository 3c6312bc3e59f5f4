"""Install the benchmark's span wrappers in every traced server process.

The benchmark puts this directory on ``PYTHONPATH`` (with
``PERFBENCH_TRACE_DIR`` set) only for traced runs.  The cluster
supervisor keeps the inherited ``PYTHONPATH`` for its workers, so they
load this hook too.  Untraced processes never see it.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.install_from_env()
