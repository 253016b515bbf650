"""Viterbi decoder for the K=7 code: ACS plus traceback.

The decoder is split exactly the way the paper maps it onto tiles:
the Add-Compare-Select recursion over the 64-state trellis (16 tiles
@ 540 MHz - the hottest component in Table 4 and the subject of the
Figure 8 bus-width study) and the traceback stage (1 tile @ 330 MHz).

The implementation vectorizes the ACS across states with numpy and
accepts soft inputs in [0, 1] (0.5 = erasure from depuncturing).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.apps.wlan.convcode import CONSTRAINT_LENGTH, G0, G1, _parity


class ViterbiDecoder:
    """Maximum-likelihood sequence decoder for the rate-1/2 code."""

    def __init__(self, g0: int = G0, g1: int = G1,
                 constraint: int = CONSTRAINT_LENGTH) -> None:
        if constraint < 2 or constraint > 12:
            raise ConfigurationError("constraint length out of range")
        self.constraint = constraint
        self.n_states = 1 << (constraint - 1)
        # Precompute, for each (state, input bit): the two expected
        # output bits.
        self._outputs = np.zeros((self.n_states, 2, 2), dtype=np.float64)
        mask = (1 << constraint) - 1
        for state in range(self.n_states):
            for bit in (0, 1):
                register = ((state << 1) | bit) & mask
                self._outputs[state, bit, 0] = _parity(register & g0)
                self._outputs[state, bit, 1] = _parity(register & g1)
        # Butterfly structure of the shift-register trellis: target
        # t = (2s + b) mod n_states, so t's parity *is* the input bit
        # and t's two predecessors are t>>1 and t>>1 + n_states/2.
        targets = np.arange(self.n_states)
        self._target_bit = targets & 1
        self._pred0 = targets >> 1
        self._pred1 = (targets >> 1) + self.n_states // 2

    def acs(self, soft_pairs: np.ndarray) -> tuple:
        """Run the Add-Compare-Select recursion.

        ``soft_pairs`` has shape (steps, 2) with values in [0, 1].
        Returns (survivor decisions of shape (steps, n_states) holding
        the predecessor-selecting input bit, final path metrics).
        """
        soft_pairs = np.asarray(soft_pairs, dtype=np.float64)
        if soft_pairs.ndim != 2 or soft_pairs.shape[1] != 2:
            raise ValueError("soft_pairs must have shape (steps, 2)")
        steps = len(soft_pairs)
        infinity = 1.0e18
        metrics = np.full(self.n_states, infinity)
        metrics[0] = 0.0  # the encoder starts in state 0
        survivors = np.zeros((steps, self.n_states), dtype=np.uint8)
        prev_state = np.zeros((steps, self.n_states), dtype=np.intp)

        bit_of_target = self._target_bit
        pred0, pred1 = self._pred0, self._pred1
        for step in range(steps):
            observed = soft_pairs[step]
            # branch[s, b]: distance of (s, b)'s expected outputs from
            # the observation.
            branch = (
                np.abs(self._outputs[:, :, 0] - observed[0])
                + np.abs(self._outputs[:, :, 1] - observed[1])
            )
            candidate0 = metrics[pred0] + branch[pred0, bit_of_target]
            candidate1 = metrics[pred1] + branch[pred1, bit_of_target]
            take1 = candidate1 < candidate0
            metrics = np.where(take1, candidate1, candidate0)
            survivors[step] = bit_of_target
            prev_state[step] = np.where(take1, pred1, pred0)
        self._prev_state = prev_state
        return survivors, metrics

    def traceback(
        self,
        survivors: np.ndarray,
        metrics: np.ndarray,
        terminated: bool = True,
    ) -> np.ndarray:
        """Walk survivors backwards to recover the information bits."""
        steps = len(survivors)
        state = 0 if terminated else int(np.argmin(metrics))
        bits = np.zeros(steps, dtype=np.uint8)
        for step in range(steps - 1, -1, -1):
            bits[step] = survivors[step, state]
            state = self._prev_state[step, state]
        return bits

    def decode(
        self, soft_bits: np.ndarray, terminated: bool = True
    ) -> np.ndarray:
        """Decode a soft (or hard) rate-1/2 stream to information bits.

        With ``terminated`` the encoder's tail zeros are stripped from
        the result.
        """
        soft_bits = np.asarray(soft_bits, dtype=np.float64)
        if len(soft_bits) % 2:
            raise ValueError("soft input length must be even")
        pairs = soft_bits.reshape(-1, 2)
        survivors, metrics = self.acs(pairs)
        bits = self.traceback(survivors, metrics, terminated=terminated)
        if terminated:
            tail = self.constraint - 1
            if len(bits) < tail:
                raise ValueError("stream shorter than the code tail")
            bits = bits[:-tail]
        return bits
