"""Fine-tuning simulator (RQ4).

Emulates supervised fine-tuning of an LLM's response head on the paper's
272-sample training split: a logistic head over sparse hashed bag-of-token
features of the prompt, trained by per-sample SGD with momentum at an
LLM-fine-tune-like learning rate for two epochs (the paper's setting).

The paper observed the tuned model *"had devolved and would always predict
either CB or BB for the whole validation set"*, including when tuned on one
language only. The same degeneracy emerges here mechanistically: with a few
hundred samples over a very high-dimensional sparse feature space, the head
memorizes the training set through example-specific features, while unseen
validation prompts activate mostly the boilerplate features shared by every
prompt. Those shared weights — and the always-active bias — receive large
oscillating updates whose final value reflects the tail of the sample order,
not the class signal, so every validation logit lands on the same side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.types import Boundedness
from repro.util.hashing import stable_hash_u64
from repro.util.rng import RngStream

_WORD_RE = re.compile(r"[A-Za-z_]+|[0-9]+|[^\sA-Za-z_0-9]")


def featurize(prompt: str, dim: int) -> dict[int, float]:
    """Hashed bag-of-tokens with sqrt-damped counts, L2-normalized."""
    counts: dict[int, float] = {}
    for w in _WORD_RE.findall(prompt):
        idx = stable_hash_u64("ft-feature", w) % dim
        counts[idx] = counts.get(idx, 0.0) + 1.0
    if not counts:
        return {}
    damped = {i: float(np.sqrt(c)) for i, c in counts.items()}
    norm = float(np.sqrt(sum(v * v for v in damped.values())))
    return {i: v / norm for i, v in damped.items()}


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics."""

    epoch_losses: list[float] = field(default_factory=list)
    epoch_train_accuracy: list[float] = field(default_factory=list)


@dataclass
class FineTuneConfig:
    """Hyperparameters mirroring a typical hosted fine-tune job."""

    epochs: int = 2
    learning_rate: float = 4.0
    momentum: float = 0.9
    feature_dim: int = 8192
    #: the response head's bias learns faster than embeddings, as the
    #: output-token bias does in a real LM head
    bias_lr_multiplier: float = 16.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.feature_dim < 16:
            raise ValueError("feature_dim too small")


class FineTunedClassifier:
    """A fine-tuned response head: predicts Compute/Bandwidth from a prompt."""

    def __init__(self, config: FineTuneConfig | None = None, *, seed_key: str = "finetune"):
        self.config = config or FineTuneConfig()
        self._seed_key = seed_key
        self.weights = np.zeros(self.config.feature_dim)
        self.bias = 0.0
        self.history = TrainingHistory()
        self._trained = False

    # -- training ------------------------------------------------------------
    def train(self, prompts: list[str], labels: list[Boundedness]) -> TrainingHistory:
        """SGD with momentum over (prompt, label) pairs; label Compute = +1."""
        if len(prompts) != len(labels):
            raise ValueError("prompts/labels length mismatch")
        if not prompts:
            raise ValueError("cannot fine-tune on an empty dataset")
        cfg = self.config
        feats = [featurize(p, cfg.feature_dim) for p in prompts]
        ys = np.array([1.0 if l is Boundedness.COMPUTE else -1.0 for l in labels])
        vel = np.zeros(cfg.feature_dim)
        bias_vel = 0.0
        rng = RngStream(self._seed_key, "order")
        n = len(prompts)
        for epoch in range(cfg.epochs):
            order = rng.child("epoch", epoch).permutation(n)
            total_loss = 0.0
            correct = 0
            for idx in order:
                x = feats[int(idx)]
                y = ys[int(idx)]
                logit = self.bias + sum(self.weights[i] * v for i, v in x.items())
                margin = y * logit
                total_loss += float(np.log1p(np.exp(-np.clip(margin, -30, 30))))
                if margin > 0:
                    correct += 1
                # logistic gradient
                g = -y / (1.0 + float(np.exp(np.clip(margin, -30, 30))))
                for i, v in x.items():
                    vel[i] = cfg.momentum * vel[i] - cfg.learning_rate * g * v
                    self.weights[i] += vel[i]
                bias_vel = (
                    cfg.momentum * bias_vel
                    - cfg.learning_rate * cfg.bias_lr_multiplier * g
                )
                self.bias += bias_vel
            self.history.epoch_losses.append(total_loss / n)
            self.history.epoch_train_accuracy.append(correct / n)
        self._trained = True
        return self.history

    # -- inference -------------------------------------------------------------
    def decision_value(self, prompt: str) -> float:
        if not self._trained:
            raise RuntimeError("classifier has not been trained")
        x = featurize(prompt, self.config.feature_dim)
        return self.bias + sum(self.weights[i] * v for i, v in x.items())

    def predict(self, prompt: str) -> Boundedness:
        return (
            Boundedness.COMPUTE
            if self.decision_value(prompt) >= 0
            else Boundedness.BANDWIDTH
        )

    def predict_many(
        self, prompts: list[str], *, jobs: int = 1
    ) -> list[Boundedness]:
        """Predict every prompt; inference is read-only, so it fans out."""
        from repro.util.parallel import parallel_map

        return parallel_map(self.predict, prompts, jobs=jobs)


def prediction_entropy(predictions: list[Boundedness]) -> float:
    """Shannon entropy (bits) of the predicted-class distribution.

    0.0 means the model always answers the same word — the paper's observed
    fine-tune collapse.
    """
    if not predictions:
        raise ValueError("no predictions")
    p = sum(1 for x in predictions if x is Boundedness.COMPUTE) / len(predictions)
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))
