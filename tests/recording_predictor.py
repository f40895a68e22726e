"""Test double for the generation loop: records every context it is given."""

from __future__ import annotations

import numpy as np

from grfsq.generation import GenerationContext


class RecordingPredictor:
    """Wraps a predictor and snapshots every context it receives."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts: list[GenerationContext] = []

    def __call__(self, context: GenerationContext) -> np.ndarray:
        self.contexts.append(
            GenerationContext(
                global_feature=context.global_feature.copy(),
                layer_indicator=context.layer_indicator,
                framewise=context.framewise.copy(),
                prev_layer_tokens=context.prev_layer_tokens.copy(),
            )
        )
        return self.inner(context)
