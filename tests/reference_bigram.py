"""Per-(t, g) reference for the bigram predictor: one dict of count rows per
layer and channel, smoothed and normalized on every lookup. It is the
definition `BigramPredictor`, which counts only the symbols a context asks
about, must match bit for bit."""

from __future__ import annotations

import numpy as np

from grfsq.generation import GenerationContext


class ReferenceBigram:
    def __init__(self, num_classes: int, num_layers: int):
        self.num_classes = num_classes
        self.num_layers = num_layers
        self.prev_counts: list[dict[int, np.ndarray]] = [{} for _ in range(num_layers)]
        self.speech_counts: list[dict[int, np.ndarray]] = [{} for _ in range(num_layers)]

    @classmethod
    def fit(cls, targets, speech_tokens, num_classes: int) -> "ReferenceBigram":
        arr = np.asarray(targets)
        T, G, R = arr.shape
        model = cls(num_classes, R)
        for r in range(R):
            prev = np.zeros((T, G), dtype=np.int64) if r == 0 else arr[:, :, r - 1]
            pc, sc = model.prev_counts[r], model.speech_counts[r]
            for t in range(T):
                row_s = sc.setdefault(int(speech_tokens[t]), np.zeros(num_classes, dtype=np.int64))
                for g in range(G):
                    tgt = int(arr[t, g, r])
                    row_p = pc.setdefault(int(prev[t, g]), np.zeros(num_classes, dtype=np.int64))
                    row_p[tgt] += 1
                    row_s[tgt] += 1
        return model

    def channel(self, table: dict[int, np.ndarray], symbol: int) -> np.ndarray:
        counts = table.get(symbol)
        if counts is None:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        smoothed = counts + 1.0
        return smoothed / smoothed.sum()

    def __call__(self, context: GenerationContext) -> np.ndarray:
        layer = context.layer_indicator
        speech_tokens = context.framewise[:, 0].astype(np.int64)
        prev = context.prev_layer_tokens
        T, G = prev.shape
        grid = np.empty((T, G, self.num_classes))
        for t in range(T):
            p_speech = self.channel(self.speech_counts[layer], int(speech_tokens[t]))
            for g in range(G):
                p_prev = self.channel(self.prev_counts[layer], int(prev[t, g]))
                joint = p_prev * p_speech
                grid[t, g] = joint / joint.sum()
        return grid
