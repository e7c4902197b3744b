"""Static-noise and transient-noise energy backends.

This implements the paper's simulation methodology (Section 6.2):

* the *static* component uses the global-depolarizing survival factor of
  the ansatz circuit under the device's calibration —
  ``E_static = lambda * E_ideal + (1 - lambda) * E_mixed`` — plus Gaussian
  shot noise sized by the Hamiltonian's coefficients and the shot count;
* the *transient* component is drawn from a :class:`TransientTrace` per
  job and applied "normalized to the magnitude of the VQA estimations":
  ``E_m = E_static + trace[job] * |E_ideal|``.

Every circuit evaluated within one job sees the same trace value, so a
rerun of the previous iteration's circuit measures the current job's
transient — the mechanism QISMET exploits.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.base import EnergyBackend
from repro.noise.noise_model import NoiseModel
from repro.noise.transient.trace import TransientTrace
from repro.simulator.expectation import shot_noise_sigma
from repro.utils.rng import SeedLike, derive_rng, ensure_rng
from repro.vqa.objective import EnergyObjective


class StaticNoiseBackend(EnergyBackend):
    """Static noise only — the paper's (unrealistic) blue line."""

    def __init__(
        self,
        objective: EnergyObjective,
        noise_model: Optional[NoiseModel] = None,
        shots: int = 4096,
        seed: SeedLike = None,
    ):
        super().__init__()
        self.objective = objective
        self.noise_model = noise_model if noise_model is not None else NoiseModel()
        self.shots = shots
        self.rng = ensure_rng(seed)

        singles, twos = objective.gate_counts()
        self.survival = self.noise_model.survival_factor_from_counts(singles, twos)
        self.mixed_energy = objective.mixed_state_energy()
        self.shot_sigma = shot_noise_sigma(objective.hamiltonian, shots)
        # Depolarization suppresses the signal *and* the estimator variance
        # stays shot-limited; keep sigma unscaled (conservative).

    def _static_mix(self, ideal: float) -> float:
        """Global-depolarizing mix of an ideal energy (no shot noise)."""
        return self.survival * ideal + (1.0 - self.survival) * self.mixed_energy

    def _finish(self, theta: np.ndarray, ideal: float, job_index: int) -> float:
        """Noise model applied to a precomputed ideal energy."""
        return self._static_mix(ideal) + self.rng.normal(0.0, self.shot_sigma)

    def _evaluate(self, theta: np.ndarray, job_index: int) -> float:
        return self._finish(theta, self.objective.energy_at(theta), job_index)

    def _evaluate_batch(
        self, thetas: np.ndarray, job_indices: Sequence[int]
    ) -> np.ndarray:
        # The expensive part — the ideal energies — runs through the
        # batched simulator in one pass; the per-evaluation noise draws
        # then happen element by element in row order, consuming the RNG
        # stream exactly as serial evaluation would.
        ideals = self.objective.batch_energies(thetas)
        return np.array(
            [
                self._finish(theta, float(ideal), job_index)
                for theta, ideal, job_index in zip(thetas, ideals, job_indices)
            ],
            dtype=float,
        )


class TransientBackend(StaticNoiseBackend):
    """Static noise plus per-job transients — the realistic red line.

    Within one job, all circuits share the job's trace value: they execute
    back to back under the same noise environment. A circuit's *effective*
    exposure to that transient is state dependent (paper Section 3.2c:
    "effect of errors is state dependent"), modelled as a smooth random
    field over parameter space:

    ``exposure(theta) = 1 + s * sum_k a_k sin(theta_k + phi_k) / sqrt(m)``

    with fixed random ``(a_k, phi_k)`` per run and sensitivity ``s``
    (``state_sensitivity``). Smoothness is the key property:

    * the rerun of iteration ``i`` and the candidate ``i+1`` differ by one
      small optimizer step, so their exposures nearly coincide — QISMET's
      ``Tm`` is a faithful transient estimate;
    * a tuner's simultaneous-perturbation pair ``theta +- c*Delta`` sits
      ``2c`` apart in *every* coordinate, so during a spike the two
      evaluations see measurably different exposures — the mechanism by
      which transients corrupt measured gradients and derail tuning.
    """

    def __init__(
        self,
        objective: EnergyObjective,
        trace: TransientTrace,
        noise_model: Optional[NoiseModel] = None,
        shots: int = 4096,
        seed: SeedLike = None,
        transient_scale: Optional[float] = None,
        state_sensitivity: float = 0.1,
        field_frequency: float = 2.0,
        exposure_jitter: float = 0.02,
    ):
        super().__init__(objective, noise_model=noise_model, shots=shots, seed=seed)
        if state_sensitivity < 0:
            raise ValueError("state_sensitivity must be non-negative")
        if field_frequency <= 0:
            raise ValueError("field_frequency must be positive")
        if exposure_jitter < 0:
            raise ValueError("exposure_jitter must be non-negative")
        self.trace = trace
        # Transients are normalized to "the magnitude of the VQA
        # estimations" (paper Sec 6.2); by default that reference magnitude
        # is |E_ideal(theta)| per evaluation, but a fixed scale can be
        # supplied (e.g. the Hamiltonian's spectral half-width).
        self.transient_scale = transient_scale
        self.state_sensitivity = state_sensitivity
        self.field_frequency = field_frequency
        self.exposure_jitter = exposure_jitter
        # The field's frequency sets its decorrelation length in parameter
        # space: ~1/frequency radians. It must sit between the optimizer's
        # accepted-step size (so rerun/candidate exposures agree) and the
        # SPSA perturbation distance 2c (so +-c evaluations decorrelate).
        # The field is a *device* property — it describes how the transient
        # couples to circuit states — so it derives from the trace's seed,
        # not the backend's: schemes compared on the same trace experience
        # the same exposure landscape.
        m = objective.num_parameters
        field_rng = derive_rng(
            int(trace.metadata.get("seed", 0)), f"exposure-field:{trace.name}"
        )
        self._field_amp = field_rng.standard_normal(m)
        self._field_phase = field_rng.uniform(0.0, 2.0 * np.pi, m)
        self._field_freq = field_rng.uniform(
            0.5 * field_frequency, 1.5 * field_frequency, m
        )
        self._field_norm = np.sqrt(max(1, m) / 2.0)

    def transient_fraction(self, job_index: int) -> float:
        """The shared trace value governing a given job."""
        return self.trace[job_index]

    def exposure(self, theta: np.ndarray) -> float:
        """State-dependent transient exposure multiplier."""
        field = float(
            np.dot(
                self._field_amp,
                np.sin(self._field_freq * theta + self._field_phase),
            )
            / self._field_norm
        )
        jitter = (
            self.rng.normal(0.0, self.exposure_jitter)
            if self.exposure_jitter > 0
            else 0.0
        )
        return 1.0 + self.state_sensitivity * field + jitter

    # A transient cannot push an estimate arbitrarily far: at worst the
    # extra decoherence fully mixes the state, so the effective fractional
    # perturbation saturates.
    _MAX_FRACTION = 1.2

    def _finish(self, theta: np.ndarray, ideal: float, job_index: int) -> float:
        static = self._static_mix(ideal)
        reference = (
            self.transient_scale
            if self.transient_scale is not None
            else abs(ideal)
        )
        fraction = self.trace[job_index] * self.exposure(theta)
        fraction = float(np.clip(fraction, -self._MAX_FRACTION, self._MAX_FRACTION))
        return static + fraction * reference + self.rng.normal(0.0, self.shot_sigma)

    def _evaluate(self, theta: np.ndarray, job_index: int) -> float:
        return self._finish(theta, self.objective.energy_at(theta), job_index)
