"""Shared experiment state: datasets, trained models, disk caching.

Several tables need the same trained models, so every derived artifact
— pretrained backbone, word2vec embeddings, YOLLO weights with their
training curve, listener and speaker weights, evaluation reports — is
one :func:`repro.runtime.cached` entry, keyed by everything it depends
on: producer configuration and budget, unit seed, the shapes of the
module it builds, the keys of the upstream entries it reads, and for a
report the checksum of the weights it scored.  A changed model is
retrained and re-scored; a re-run over the same directory trains nothing.
"""

from __future__ import annotations

import copy
import zlib
from contextlib import contextmanager
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backbone import load_pretrained_backbone
from repro.backbone.pretrain import backbone_key
from repro.core import Grounder, YolloConfig, YolloModel, YolloTrainer
from repro.data import DATASET_SPECS, GroundingDataset, build_dataset
from repro.eval import MetricReport, TrainingCurve, evaluate_grounder
from repro.experiments.config import ExperimentPreset, get_preset
from repro.optim import WarmupCosineLR
from repro.runtime import cached, state_checksum
from repro.text import SkipGramWord2Vec, Vocabulary, build_corpus
from repro.twostage import (
    ListenerMatcher,
    SegmentationProposer,
    SpeakerScorer,
    TwoStageGrounder,
    train_listener,
    train_speaker,
)
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import seed_everything, spawn_rng
from repro.zoo import get_preset as get_model_preset, lower_config

DATASET_NAMES = tuple(DATASET_SPECS)

#: A trained model whose validation curve never clears this ACC@0.5 is
#: considered degenerate (it never learned to localise at all) and its
#: unit seed is rerolled.
_DEGENERATE_ACC = 0.05
#: Training attempts per (model, dataset) unit before keeping the best.
_YOLLO_TRAIN_ATTEMPTS = 3
#: Base seed every unit's RNG scope derives from.
SEED = 7


class ExperimentContext:
    """Lazily builds and caches everything the tables need."""

    def __init__(self, preset: Optional[ExperimentPreset] = None,
                 cache_dir: Optional[str] = None,
                 verbose: bool = True, model_preset: Optional[str] = None):
        self.preset = preset or get_preset()
        if model_preset is not None:
            get_model_preset(model_preset)  # fail fast on unknown names
        self.model_preset = model_preset
        self.logger = ProgressLogger("experiments", enabled=verbose)
        #: Where every cached artifact goes (``None``: the default cache).
        self.cache_dir = cache_dir
        seed_everything(SEED)

        self._datasets: Dict[str, GroundingDataset] = {}
        self._scenario_datasets: Dict[str, GroundingDataset] = {}
        self._shared_vocab: Optional[Vocabulary] = None
        self._word2vec: Optional[np.ndarray] = None
        self._word2vec_key: Optional[Dict[str, object]] = None
        self._yollo: Dict[str, Tuple[YolloModel, Grounder, TrainingCurve]] = {}
        self._baselines: Dict[Tuple[str, str], TwoStageGrounder] = {}

    @contextmanager
    def _unit_seed(self, tag: str):
        """Deterministic RNG scope for one expensive unit of work.

        Each dataset build / embedding fit / model training reseeds the
        process RNG from ``(seed, tag)`` and restores the base seed on
        exit, so the produced weights depend only on the unit itself —
        not on which benchmark process happened to train first, and not
        on whether earlier units were served from the disk cache.
        """
        derived = zlib.crc32(f"{SEED}:{tag}".encode("utf-8")) & 0x7FFFFFFF
        seed_everything(derived)
        try:
            yield
        finally:
            seed_everything(SEED)

    # ------------------------------------------------------------------
    # Datasets and vocabulary
    # ------------------------------------------------------------------
    def _scaled_spec(self, name: str):
        spec = DATASET_SPECS[name]
        splits = {
            split: (self.preset.train_scenes if split == "train" else self.preset.eval_scenes)
            for split in spec.scenes_per_split
        }
        return replace(spec, scenes_per_split=splits)

    def dataset(self, name: str) -> GroundingDataset:
        """Build (once) the named dataset with the shared vocabulary."""
        if name not in self._datasets:
            self.logger.log(f"building dataset {name}")
            with self._unit_seed(f"dataset-{name}"):
                self._datasets[name] = build_dataset(self._scaled_spec(name))
        if self._shared_vocab is not None:
            self._datasets[name].vocab = self._shared_vocab
        return self._datasets[name]

    def scenario_dataset(self, name: str) -> GroundingDataset:
        """Build (once) a registered scenario's splits at preset scale.

        Returned as a :class:`~repro.data.GroundingDataset` (with its
        own vocabulary over the scenario's expressions) so the table
        harness and ``dataset_statistics`` treat scenario workloads
        exactly like the RefCOCO-style datasets.
        """
        from repro.data.refcoco import DatasetSpec
        from repro.scenarios import get_scenario

        scenario = get_scenario(name)  # fail fast on unknown names
        if name not in self._scenario_datasets:
            self.logger.log(f"building scenario {name}")
            with self._unit_seed(f"scenario-{name}"):
                splits = scenario.build_splits(self.preset.eval_scenes)
            vocab = Vocabulary.from_corpus(
                sample.tokens
                for samples in splits.values() for sample in samples)
            spec = DatasetSpec(
                name=f"scenario:{name}", flavor="refcoco",
                scenes_per_split={split: self.preset.eval_scenes
                                  for split in splits})
            max_len = max(len(sample.tokens)
                          for samples in splits.values()
                          for sample in samples)
            self._scenario_datasets[name] = GroundingDataset(
                spec, splits, vocab, max_query_length=max_len)
        return self._scenario_datasets[name]

    def shared_vocab(self) -> Vocabulary:
        """Union vocabulary over all datasets (cross-dataset evaluation)."""
        if self._shared_vocab is None:
            for name in DATASET_NAMES:
                self.dataset(name)
            self._shared_vocab = Vocabulary.from_corpus(
                sample.tokens
                for ds in self._datasets.values()
                for sample in ds.all_samples()
            )
            for ds in self._datasets.values():
                ds.vocab = self._shared_vocab
        return self._shared_vocab

    def max_query_length(self) -> int:
        """Padding length covering every dataset."""
        self.shared_vocab()
        return max(8, max(ds.max_query_length for ds in self._datasets.values()))

    def word2vec_matrix(self) -> np.ndarray:
        """Skip-gram embeddings over the shared vocabulary (cached)."""
        if self._word2vec is None:
            vocab = self.shared_vocab()
            self._word2vec_key = {
                "vocab": [vocab.id_to_token(i) for i in range(len(vocab))],
                "corpus": 400, "dim": 24, "epochs": 2,
                "unit": [SEED, "word2vec"]}

            def fit() -> Dict[str, np.ndarray]:
                self.logger.log("pre-training word2vec embeddings")
                with self._unit_seed("word2vec"):
                    corpus = build_corpus(400, rng=spawn_rng("experiments-corpus"))
                    model = SkipGramWord2Vec(vocab, dim=24)
                    model.train(corpus, epochs=2)
                return {"embeddings": model.embedding_matrix()}

            self._word2vec = cached(self.cache_dir, "word2vec",
                                    self._word2vec_key, fit)["embeddings"]
        return self._word2vec

    # ------------------------------------------------------------------
    # YOLLO models
    # ------------------------------------------------------------------
    def _config_overrides(self, **overrides) -> Dict[str, object]:
        return {"max_query_length": self.max_query_length(), **overrides}

    def yollo_config(self, **overrides) -> YolloConfig:
        """The model preset (default ``yollo``) at the shared query length."""
        return lower_config(self.model_preset or "yollo",
                            **self._config_overrides(**overrides))

    def yollo(self, dataset_name: str, tag: str = "main",
              epochs: Optional[int] = None,
              **config_overrides) -> Tuple[YolloModel, Grounder, TrainingCurve]:
        """Train (or load) a YOLLO model on the named dataset."""
        name = f"{dataset_name}-{tag}"
        if name in self._yollo:
            return self._yollo[name]

        dataset = self.dataset(dataset_name)
        config = self.yollo_config(**config_overrides)
        epochs = epochs if epochs is not None else self.preset.yollo_epochs
        # epochs == 0 means the caller only needs the architecture (e.g.
        # the Table-5 timing rows) — skip the ImageNet-substitute step.
        pretrain_steps = self.preset.pretrain_steps if epochs > 0 else 1
        backbone_args = dict(steps=pretrain_steps, image_height=config.image_height,
                             image_width=config.image_width)
        backbone = load_pretrained_backbone(config.backbone, cache_dir=self.cache_dir,
                                            **backbone_args)
        embeddings = self.word2vec_matrix()

        def build() -> YolloModel:
            # Called inside a unit's RNG scope; the backbone was loaded
            # before it, so the scope's stream goes to model init alone.
            # ``config`` is the preset lowered with these overrides; passing
            # the overrides again would collide with a ``backbone`` one.
            # Each model fine-tunes its own copy of the pretrained backbone:
            # a reroll attempt starts from the pretrained weights, not from
            # the trunk the previous attempt trained.
            return YolloModel(config, len(dataset.vocab),
                              pretrained_embeddings=embeddings,
                              backbone=copy.deepcopy(backbone))

        # The model the weights load into: inits inside the unit's RNG
        # scope, so its weights are a function of (seed, unit_tag) alone.
        with self._unit_seed(f"yollo-{name}"):
            model = build()
        key = {
            "trainer": YolloTrainer(model, dataset, config).fingerprint_data(),
            "epochs": epochs, "preset": asdict(self.preset),
            "unit": [SEED, f"yollo-{name}"], "shapes": _shapes(model),
            "backbone": backbone_key(config.backbone, backbone, **backbone_args),
            "word2vec": self._word2vec_key,
            # Format 1 shared one backbone module across reroll attempts.
            "reroll_format": 2,
        }

        def train() -> Dict[str, object]:
            # A small fraction of derived seeds put training on a
            # degenerate trajectory (the validation curve never leaves
            # ~0).  Detect that and reroll the unit seed, keeping the
            # best attempt, so the benchmark suite doesn't hinge on one
            # unlucky stream.
            best: Optional[Tuple[float, YolloModel, TrainingCurve]] = None
            for attempt in range(_YOLLO_TRAIN_ATTEMPTS):
                unit_tag = (f"yollo-{name}" if attempt == 0
                            else f"yollo-{name}-retry{attempt}")
                self.logger.log(
                    f"training YOLLO[{tag}] on {dataset_name} ({epochs} epochs)")
                per_epoch = -(-len(dataset["train"]) // config.batch_size)
                total_steps = max(2, epochs * per_epoch)
                with self._unit_seed(unit_tag):
                    candidate = build()
                    # Warmup + cosine decay: the constant-LR runs were
                    # prone to late-training loss spikes that destroyed
                    # an already-good model; decaying into the tail
                    # stabilises them (keep_best is the backstop).
                    trainer = YolloTrainer(
                        candidate, dataset, config, logger=self.logger,
                        scheduler=lambda opt: WarmupCosineLR(
                            opt, warmup_steps=max(1, total_steps // 20),
                            total_steps=total_steps,
                            min_lr=0.1 * config.learning_rate,
                        ),
                    )
                    history = trainer.train(epochs=epochs,
                                            eval_every=self.preset.eval_every,
                                            eval_samples=self.preset.eval_limit,
                                            keep_best=True)
                curve = history.curve
                curve.label = dataset_name
                score = max(curve.values) if curve.values else 0.0
                if best is None or score > best[0]:
                    best = (score, candidate, curve)
                if epochs == 0 or not curve.values or score >= _DEGENERATE_ACC:
                    break
                self.logger.log(
                    f"YOLLO[{tag}] on {dataset_name} degenerate "
                    f"(best val ACC {score:.3f}); rerolling unit seed")
            _, candidate, curve = best
            return {"weights": candidate.state_dict(), "curve": asdict(curve)}

        payload = cached(self.cache_dir, "yollo", key, train)
        model.load_state_dict(payload["weights"])
        curve = TrainingCurve(**payload["curve"])
        grounder = Grounder(model, dataset.vocab)
        self._yollo[name] = (model, grounder, curve)
        return self._yollo[name]

    # ------------------------------------------------------------------
    # Two-stage baselines
    # ------------------------------------------------------------------
    def proposer(self) -> SegmentationProposer:
        return SegmentationProposer(rng=spawn_rng("experiments-proposer"))

    def baseline(self, kind: str, dataset_name: str) -> TwoStageGrounder:
        """Train (or load) a two-stage baseline: listener / speaker / both."""
        if kind not in ("listener", "speaker", "speaker+listener"):
            raise ValueError(f"unknown baseline kind: {kind}")
        cache_key = (kind, dataset_name)
        if cache_key in self._baselines:
            return self._baselines[cache_key]

        dataset = self.dataset(dataset_name)
        vocab = self.shared_vocab()
        max_len = self.max_query_length()
        proposer = self.proposer()
        matchers = {}
        if "listener" in kind:
            matchers["listener"] = self._trained_matcher(
                "listener", dataset_name,
                lambda: ListenerMatcher(vocab, max_query_length=max_len),
                lambda m: train_listener(
                    m, dataset["train"], proposer, steps=self.preset.baseline_steps,
                    logger=self.logger,
                ),
            )
        if "speaker" in kind:
            matchers["speaker"] = self._trained_matcher(
                "speaker", dataset_name,
                lambda: SpeakerScorer(vocab, max_query_length=max_len),
                lambda m: train_speaker(
                    m, dataset["train"], steps=self.preset.baseline_steps,
                    logger=self.logger,
                ),
            )
        grounder = TwoStageGrounder(proposer, matchers)
        self._baselines[cache_key] = grounder
        return grounder

    def _trained_matcher(self, name: str, dataset_name: str, build, train):
        unit_tag = f"{name}-{dataset_name}"
        with self._unit_seed(unit_tag):
            matcher = build()
            key = {"dataset": dataset_name, "preset": asdict(self.preset),
                   "unit": [SEED, unit_tag], "shapes": _shapes(matcher)}

            def fit() -> Dict[str, np.ndarray]:
                self.logger.log(f"training {name} baseline on {dataset_name}")
                train(matcher)
                return matcher.state_dict()

            matcher.load_state_dict(cached(self.cache_dir, name, key, fit))
        return matcher

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, grounder, dataset_name: str, split: str) -> MetricReport:
        """Evaluate a grounder on one split, cached by the weights it scores with."""
        if isinstance(grounder, TwoStageGrounder):
            weights = {f"{kind}.{k}": v for kind, matcher in grounder.matchers.items()
                       for k, v in matcher.state_dict().items()}
            model = grounder.name
        else:
            weights, model = grounder.model.state_dict(), asdict(grounder.model.config)
        # The preset fields include ``eval_limit``, the number of samples scored.
        key = {"weights": state_checksum(weights), "model": model,
               "dataset": dataset_name, "split": split,
               "preset": asdict(self.preset), "seed": SEED}

        def score() -> Dict[str, object]:
            samples = self.dataset(dataset_name)[split][: self.preset.eval_limit]
            return asdict(evaluate_grounder(grounder, samples))

        return MetricReport(**cached(self.cache_dir, "eval", key, score))

    def eval_splits(self, dataset_name: str) -> List[str]:
        """Evaluation splits for a dataset (RefCOCOg has only val)."""
        return [s for s in ("val", "testA", "testB")
                if s in self.dataset(dataset_name).splits]


def _shapes(module) -> Dict[str, List[int]]:
    """Names and shapes of a module's state, the architecture in a key."""
    return {name: list(value.shape) for name, value in module.state_dict().items()}
