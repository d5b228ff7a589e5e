#!/usr/bin/env python3
"""Quickstart: train a small YOLLO model and ground a few queries.

Runs in a couple of minutes on one CPU core::

    python examples/quickstart.py
"""

import numpy as np

from repro import quick_grounder
from repro.detection import iou_matrix
from repro.utils import seed_everything
from repro.viz import render_attention_ascii


def main() -> None:
    seed_everything(0)

    print("Training a small YOLLO model on synthetic RefCOCO ...")
    grounder, dataset = quick_grounder(dataset_scale=0.3, epochs=6)

    print("\nGrounding validation queries:\n")
    stride = grounder.model.encoder.backbone.stride
    for sample in dataset["val"][:4]:
        prediction = grounder.ground(sample.image, sample.query)
        iou = iou_matrix(prediction.box[None], sample.target_box[None])[0, 0]
        status = "HIT " if iou > 0.5 else "MISS"
        print(f'[{status}] "{sample.query}"')
        print(f"  predicted box {np.round(prediction.box, 1)}  "
              f"target {np.round(sample.target_box, 1)}  IoU={iou:.2f}")
        print(render_attention_ascii(prediction.attention_map,
                                     box=prediction.box, stride=stride))
        print()


if __name__ == "__main__":
    main()
