"""Visualisation without external imaging libraries: ASCII + PPM."""

from repro.viz.ascii import ascii_bar, render_attention_ascii
from repro.viz.ppm import save_ppm, overlay_attention, draw_box

__all__ = [
    "ascii_bar",
    "render_attention_ascii",
    "save_ppm",
    "overlay_attention",
    "draw_box",
]
