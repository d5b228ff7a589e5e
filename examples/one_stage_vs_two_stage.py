#!/usr/bin/env python3
"""Head-to-head: YOLLO vs a two-stage speaker/listener pipeline.

Reproduces the paper's core argument (Figure 1 + Table 5) on one CPU:
the two-stage pipeline pays a per-proposal matching cost and inherits
stage-i misses, while YOLLO runs a single conditioned detection pass.

    python examples/one_stage_vs_two_stage.py
"""

import numpy as np

from repro.backbone import load_pretrained_backbone
from repro.core import Grounder, YolloConfig, YolloModel, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.detection import iou_matrix
from repro.eval import evaluate_grounder, time_grounder
from repro.twostage import (
    ListenerMatcher,
    SegmentationProposer,
    SpeakerScorer,
    TwoStageGrounder,
    train_listener,
    train_speaker,
)
from repro.utils import seed_everything


def main() -> None:
    seed_everything(3)
    dataset = build_dataset(REFCOCO.scaled(0.5))
    train, val = dataset["train"], dataset["val"]

    print("== Stage i: query-blind proposals ==")
    proposer = SegmentationProposer()
    recalls = []
    counts = []
    for sample in val:
        proposals = proposer.propose(sample.image)
        counts.append(len(proposals))
        recalls.append(
            float(iou_matrix(proposals.boxes, sample.target_box[None]).max() > 0.5)
        )
    print(f"avg proposals/image: {np.mean(counts):.0f}   "
          f"target recall@0.5: {np.mean(recalls):.2f} "
          f"(a miss here dooms the two-stage pipeline)\n")

    print("== Training the two-stage matchers ==")
    listener = ListenerMatcher(dataset.vocab, max_query_length=dataset.max_query_length)
    train_listener(listener, train, proposer, steps=300)
    speaker = SpeakerScorer(dataset.vocab, max_query_length=dataset.max_query_length)
    train_speaker(speaker, train, steps=300)
    two_stage = TwoStageGrounder(proposer, {"speaker": speaker, "listener": listener})

    print("== Training YOLLO (one-stage) ==")
    config = YolloConfig(max_query_length=max(8, dataset.max_query_length))
    backbone = load_pretrained_backbone(config.backbone, steps=300)
    model = YolloModel(config, vocab_size=len(dataset.vocab), backbone=backbone)
    trainer = YolloTrainer(model, dataset, config)
    trainer.train(epochs=6)
    yollo = Grounder(model, dataset.vocab)

    print("\n== Accuracy (val ACC@0.5) ==")
    two_stage_report = evaluate_grounder(two_stage, val)
    yollo_report = evaluate_grounder(yollo, val)
    print(f"speaker+listener: {two_stage_report.acc_at_50:.2%}")
    print(f"YOLLO:            {yollo_report.acc_at_50:.2%}")

    print("\n== Latency (per query) ==")
    two_stage_time = time_grounder(two_stage, val[:8],
                                   proposal_timer=two_stage.proposal_time)
    yollo_time = time_grounder(yollo, val[:8])
    ratio = two_stage_time.total_mean / yollo_time.latency.mean
    print(f"speaker+listener: {two_stage_time.latency.mean * 1000:.1f}ms "
          f"(+{two_stage_time.proposal_mean * 1000:.1f}ms proposals)")
    print(f"YOLLO:            {yollo_time.latency.mean * 1000:.1f}ms   "
          f"({ratio:.1f}x faster)")


if __name__ == "__main__":
    main()
