"""Input-specific garbage-collector selection — the §VI extension.

The paper's discussion lists GC selection (after the authors' VEE'08
study) as a further proactive, input-specific optimization the same
machinery enables. This module implements it on the VM's heap model
(:mod:`repro.vm.heap`): a program-level classification tree maps input
features to the collector that minimizes total GC cost, guarded by its own
decayed-confidence gate, and trained after each run on the posterior ideal
collector computed analytically from the observed allocation profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..learning.incremental import IncrementalClassifier
from ..learning.tree import TreeParams
from ..vm.heap import (
    DEFAULT_GC_POLICY,
    GCCostModel,
    GC_POLICIES,
    estimate_gc_cost,
    ideal_gc_policy,
)
from ..vm.profiles import RunProfile
from ..xicl.features import FeatureVector
from .confidence import ConfidenceTracker, DEFAULT_GAMMA, DEFAULT_THRESHOLD


@dataclass
class GCDecision:
    """What the selector did for one run, and how it scored."""

    applied: str            # the policy the run executed under
    predicted: str | None   # the model's (possibly gated-off) prediction
    ideal: str | None = None
    correct: bool | None = None
    saved_cycles: float | None = None  # est. cost(default) - cost(applied)


class GCSelector:
    """Learns and predicts the best collector per input."""

    def __init__(
        self,
        gamma: float = DEFAULT_GAMMA,
        threshold: float = DEFAULT_THRESHOLD,
        tree_params: TreeParams = TreeParams(),
        gc_model: GCCostModel = GCCostModel(),
        default_policy: str = DEFAULT_GC_POLICY,
        min_rows: int = 2,
    ):
        if default_policy not in GC_POLICIES:
            raise ValueError(f"unknown default policy {default_policy!r}")
        self.model = IncrementalClassifier(tree_params, min_rows=min_rows)
        self.confidence = ConfidenceTracker(gamma=gamma, threshold=threshold)
        self.gc_model = gc_model
        self.default_policy = default_policy
        self.decisions: list[GCDecision] = []

    # -- prediction -----------------------------------------------------------
    def select(self, fvector: FeatureVector) -> GCDecision:
        """Pick the collector for a new run (discriminative)."""
        predicted = None
        if self.model.is_fitted or self.model.n_observations >= 2:
            predicted = self.model.predict(fvector)
        applied = (
            str(predicted)
            if predicted is not None and self.confidence.confident
            else self.default_policy
        )
        decision = GCDecision(applied=applied, predicted=predicted)
        self.decisions.append(decision)
        return decision

    # -- learning -------------------------------------------------------------
    def observe(
        self, decision: GCDecision, fvector: FeatureVector, profile: RunProfile
    ) -> GCDecision:
        """Score the decision against the run's posterior ideal collector
        and fold the observation into the model."""
        ideal = ideal_gc_policy(
            profile.allocated_bytes,
            profile.peak_live_bytes,
            profile.allocation_count,
            self.gc_model,
        )
        scored = (
            decision.predicted
            if decision.predicted is not None
            else self.default_policy
        )
        decision.ideal = ideal
        decision.correct = scored == ideal
        default_cost = estimate_gc_cost(
            self.default_policy,
            profile.allocated_bytes,
            profile.peak_live_bytes,
            profile.allocation_count,
            self.gc_model,
        )
        applied_cost = estimate_gc_cost(
            decision.applied,
            profile.allocated_bytes,
            profile.peak_live_bytes,
            profile.allocation_count,
            self.gc_model,
        )
        decision.saved_cycles = default_cost - applied_cost
        self.confidence.update(1.0 if decision.correct else 0.0)
        self.model.observe(fvector, ideal)
        self.model.refit()
        return decision

    # -- reporting ------------------------------------------------------------
    def selection_accuracy(self) -> float:
        scored = [d for d in self.decisions if d.correct is not None]
        if not scored:
            return 0.0
        return sum(1 for d in scored if d.correct) / len(scored)
