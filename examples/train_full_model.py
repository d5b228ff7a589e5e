#!/usr/bin/env python3
"""Full training recipe with checkpointing and a training curve.

The long-form version of the quickstart: builds the standard RefCOCO
substitute, pre-trains the backbone and word2vec embeddings, trains
YOLLO with curve recording, reports every Table-3 metric, and saves the
checkpoint so it can be reloaded later.

    python examples/train_full_model.py [epochs]
"""

import os
import sys

from repro.backbone import load_pretrained_backbone
from repro.core import Grounder, YolloConfig, YolloModel, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.eval import evaluate_grounder
from repro.runtime import read_checkpoint, write_checkpoint
from repro.text import SkipGramWord2Vec, build_corpus
from repro.utils import ProgressLogger, seed_everything

CHECKPOINT = os.path.join(os.path.dirname(__file__), "output", "yollo-refcoco.ckpt")


def main() -> None:
    epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed_everything(0)
    logger = ProgressLogger("train")

    logger.log("building dataset")
    dataset = build_dataset(REFCOCO)

    logger.log("pre-training word2vec on the synthetic corpus (LM-1B substitute)")
    word2vec = SkipGramWord2Vec(dataset.vocab, dim=24)
    word2vec.train(build_corpus(300), epochs=2)

    logger.log("loading ImageNet-substitute backbone")
    config = YolloConfig(max_query_length=max(8, dataset.max_query_length))
    backbone = load_pretrained_backbone(config.backbone, steps=600)

    model = YolloModel(
        config, vocab_size=len(dataset.vocab),
        pretrained_embeddings=word2vec.embedding_matrix(), backbone=backbone,
    )
    logger.log(f"model has {model.num_parameters():,} parameters")

    trainer = YolloTrainer(model, dataset, config, logger=logger)
    history = trainer.train(epochs=epochs, eval_every=50)
    print("\n" + history.curve.render_ascii())

    grounder = Grounder(model, dataset.vocab)
    for split in ("val", "testA", "testB"):
        report = evaluate_grounder(grounder, dataset[split])
        metrics = " ".join(f"{k}={v:.2%}" for k, v in report.as_dict().items())
        print(f"{split}: {metrics}")

    os.makedirs(os.path.dirname(CHECKPOINT), exist_ok=True)
    write_checkpoint(CHECKPOINT, model.state_dict())
    print(f"checkpoint written to {CHECKPOINT}")

    # Demonstrate reload.
    clone = YolloModel(config, vocab_size=len(dataset.vocab))
    clone.load_state_dict(read_checkpoint(CHECKPOINT).payload)
    print("checkpoint reloads cleanly")


if __name__ == "__main__":
    main()
