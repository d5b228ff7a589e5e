"""ASCII renderings of attention maps and bars.

Used by the Figure-5 harness to print qualitative results in terminals
and log files, and by the profile report for its hot-op bars.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Light-to-dark ramp for heat maps.
_RAMP = " .:-=+*#%@"
#: Characters per attention cell (2 keeps cells roughly square).
CELL_WIDTH = 2
#: Fill character of :func:`ascii_bar`.
BAR_FILL = "#"


def render_attention_ascii(attention: np.ndarray, box: Optional[np.ndarray] = None,
                           stride: float = 1.0) -> str:
    """Render a ``(gh, gw)`` attention map as an ASCII heat map.

    ``box`` (image coordinates, divided by ``stride``) is drawn as a
    rectangle of ``[]`` markers on top of the heat characters.
    """
    attention = np.asarray(attention, dtype=np.float64)
    lo, hi = attention.min(), attention.max()
    normalised = (attention - lo) / (hi - lo + 1e-12)
    grid_h, grid_w = attention.shape
    chars = [
        [_RAMP[int(round(v * (len(_RAMP) - 1)))] * CELL_WIDTH for v in row]
        for row in normalised
    ]
    if box is not None:
        col1 = int(np.clip(np.floor(box[0] / stride), 0, grid_w - 1))
        row1 = int(np.clip(np.floor(box[1] / stride), 0, grid_h - 1))
        col2 = int(np.clip(np.ceil(box[2] / stride) - 1, col1, grid_w - 1))
        row2 = int(np.clip(np.ceil(box[3] / stride) - 1, row1, grid_h - 1))
        for col in range(col1, col2 + 1):
            chars[row1][col] = "[" + chars[row1][col][1:]
            chars[row2][col] = chars[row2][col][:-1] + "]"
        for row in range(row1, row2 + 1):
            chars[row][col1] = "[" + chars[row][col1][1:]
            chars[row][col2] = chars[row][col2][:-1] + "]"
    return "\n".join("".join(row) for row in chars)


def ascii_bar(fraction: float, width: int = 20) -> str:
    """Render ``fraction`` (clamped to [0, 1]) as a fixed-width bar.

    A non-zero fraction always shows at least one fill character so tiny
    contributions stay visible in hot-op tables.
    """
    fraction = float(np.clip(fraction, 0.0, 1.0))
    cells = int(round(fraction * width))
    if fraction > 0.0 and cells == 0:
        cells = 1
    return BAR_FILL * cells + " " * (width - cells)
