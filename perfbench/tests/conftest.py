"""Make the benchmark's modules and the checkout's ``repro`` importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import add_src_path  # noqa: E402

add_src_path()
