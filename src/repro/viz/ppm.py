"""Binary PPM (P6) image output — dependency-free qualitative figures."""

from __future__ import annotations

import numpy as np

#: Weight of the attention heat in :func:`overlay_attention`.
OVERLAY_ALPHA = 0.55
#: Line width (pixels) of :func:`draw_box` rectangles.
BOX_THICKNESS = 1


def save_ppm(path: str, image: np.ndarray) -> None:
    """Write a ``(3, H, W)`` float image in [0, 1] as a binary PPM file."""
    image = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got {image.shape}")
    _, height, width = image.shape
    pixels = (image.transpose(1, 2, 0) * 255).astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def overlay_attention(image: np.ndarray, attention: np.ndarray) -> np.ndarray:
    """Blend a low-resolution attention map over an RGB image (red heat).

    ``attention`` of shape ``(gh, gw)`` is nearest-neighbour upsampled
    to the image size, normalised, and mixed into the red channel —
    reproducing the highlighted areas of Figure 5.
    """
    image = np.asarray(image, dtype=np.float64)
    attention = np.asarray(attention, dtype=np.float64)
    _, height, width = image.shape
    rows = np.clip(
        (np.arange(height) * attention.shape[0] // height), 0, attention.shape[0] - 1
    )
    cols = np.clip(
        (np.arange(width) * attention.shape[1] // width), 0, attention.shape[1] - 1
    )
    upsampled = attention[rows[:, None], cols[None, :]]
    lo, hi = upsampled.min(), upsampled.max()
    heat = (upsampled - lo) / (hi - lo + 1e-12)
    out = image * (1.0 - OVERLAY_ALPHA * heat[None])
    out[0] += OVERLAY_ALPHA * heat
    return np.clip(out, 0.0, 1.0)


def draw_box(image: np.ndarray, box: np.ndarray,
             color=(1.0, 0.0, 0.0)) -> np.ndarray:
    """Return a copy of the image with a rectangle drawn on it."""
    out = np.asarray(image, dtype=np.float64).copy()
    _, height, width = out.shape
    x1 = int(np.clip(box[0], 0, width - 1))
    y1 = int(np.clip(box[1], 0, height - 1))
    x2 = int(np.clip(box[2] - 1, x1, width - 1))
    y2 = int(np.clip(box[3] - 1, y1, height - 1))
    color_arr = np.asarray(color)[:, None]
    for t in range(BOX_THICKNESS):
        top, bottom = min(y1 + t, height - 1), max(y2 - t, 0)
        left, right = min(x1 + t, width - 1), max(x2 - t, 0)
        out[:, top, x1 : x2 + 1] = color_arr
        out[:, bottom, x1 : x2 + 1] = color_arr
        out[:, y1 : y2 + 1, left] = color_arr
        out[:, y1 : y2 + 1, right] = color_arr
    return out
