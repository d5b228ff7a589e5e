#!/usr/bin/env python3
"""Interactive grounding: changing the query moves the attended region.

Reproduces the Figure-5 effect ("left most toilet" vs "right urinal"):
the same image is queried with contrastive expressions and the attention
mask plus predicted box follow the language.  Panels are printed as
ASCII and written as PPM images under ``examples/output/``.

    python examples/interactive_grounding.py
"""

import os

import numpy as np

from repro import quick_grounder
from repro.data import ExpressionGenerator
from repro.utils import seed_everything
from repro.viz import draw_box, overlay_attention, render_attention_ascii, save_ppm

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main() -> None:
    seed_everything(0)
    grounder, dataset = quick_grounder(dataset_scale=0.3, epochs=6)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    stride = grounder.model.encoder.backbone.stride

    # Pick a validation scene and describe *several different* objects.
    expressions = ExpressionGenerator("refcoco")
    sample = max(dataset["val"], key=lambda s: len(s.scene.objects))
    scene = sample.scene
    print(f"scene with {len(scene.objects)} objects: "
          + ", ".join(f"{o.color} {o.category}" for o in scene.objects))

    panel = 0
    for index, target in enumerate(scene.objects):
        query = expressions.generate(scene, target)
        if query is None:
            continue
        prediction = grounder.ground(sample.image, query)
        print(f'\nquery: "{query}"  ->  box {np.round(prediction.box, 1)} '
              f"(target {np.round(target.box, 1)})")
        print(render_attention_ascii(prediction.attention_map,
                                     box=prediction.box, stride=stride))
        figure = overlay_attention(sample.image, prediction.attention_map)
        figure = draw_box(figure, prediction.box, color=(1.0, 0.0, 0.0))
        figure = draw_box(figure, target.box, color=(0.0, 1.0, 0.0))
        path = os.path.join(OUTPUT_DIR, f"grounding-{panel}.ppm")
        save_ppm(path, figure)
        print(f"wrote {path}")
        panel += 1
        if panel >= 4:
            break


if __name__ == "__main__":
    main()
