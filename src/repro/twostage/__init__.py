"""Two-stage visual-grounding baselines (the paper's comparison systems).

Stage i proposes query-blind object candidates (:mod:`proposals`): either
a deterministic selective-search-style segmenter or a class-agnostic
RPN — both reproduce the pathologies the paper attributes
to two-stage pipelines (misaligned boxes, missed targets).  Stage ii
scores every proposal against the query (:mod:`listener`,
:mod:`speaker`), paying the per-proposal cost that makes these systems
20-30x slower than YOLLO.
"""

from repro.twostage.regions import RegionEncoder, crop_and_resize, spatial_features
from repro.twostage.proposals import ProposalSet, RPNProposer, SegmentationProposer
from repro.twostage.listener import ListenerMatcher, train_listener
from repro.twostage.speaker import SpeakerScorer, train_speaker
from repro.twostage.pipeline import TwoStageGrounder

__all__ = [
    "crop_and_resize",
    "spatial_features",
    "RegionEncoder",
    "ProposalSet",
    "SegmentationProposer",
    "RPNProposer",
    "ListenerMatcher",
    "train_listener",
    "SpeakerScorer",
    "train_speaker",
    "TwoStageGrounder",
]
