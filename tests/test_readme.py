"""README.md's python blocks run as written, so a changed signature cannot
leave them stale."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # The quick start's claims about its own output.
    assert np.allclose(namespace["boosted"].final_point, [-1.0, -1.0], atol=1e-4)
    assert namespace["report"].is_d_stationary
    assert len(namespace["pairs"].pairs) == 2
