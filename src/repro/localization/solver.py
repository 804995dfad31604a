"""Angular-constraint camera localization (the paper's Fig. 12 program).

The observation model: for any two matched keypoints *i, j*, the angle
at the camera between their viewing rays is fixed by their pixel
coordinates and the camera FoV alone (no pose needed) — Fig. 11's
``gamma`` geometry.  The unknown camera position ``A = (x, y, z)`` must
make the angles subtended by the keypoints' known 3D positions agree
with those perceived angles.  The paper decomposes angles into X/Z and
Y/Z components and minimizes summed residuals ``Ex_ij + Ey_ij`` via the
law of cosines; we use the equivalent decomposition-free form — the full
3D angle between rays, ``acos`` of the ray dot product — which carries
the same constraints without per-axis bookkeeping and is
rotation-invariant, so position solves without knowing orientation.

Following the paper we solve with "a time-bounded differential
evolution" (bounded by the venue extents), then polish with robust least
squares.  The evolution is scipy's default best1bin scheme written over
the whole population at once, so each generation costs one broadcast
residual pass instead of one Python objective call per member.
Orientation is recovered afterwards by Kabsch alignment of the
camera-frame ray directions with the world-frame directions to the
matched points — yielding the full 6-DoF pose.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.geometry.camera import CameraIntrinsics
from repro.geometry.pose import Pose

__all__ = ["AngularLocalizer", "LocalizationProblem", "LocalizationSolution"]

# scipy's differential_evolution defaults, which this solver reproduces.
_CROSSOVER = 0.7
_SPREAD_TOLERANCE = 1e-6


@dataclass(frozen=True)
class LocalizationProblem:
    """One query: matched 2D pixels with their retrieved 3D positions."""

    pixels: np.ndarray  # (n, 2)
    world_points: np.ndarray  # (n, 3)
    intrinsics: CameraIntrinsics
    bounds_low: np.ndarray  # (3,) venue bounding box
    bounds_high: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.shape[0] != self.world_points.shape[0]:
            raise ValueError("pixels and world points must align")

    @property
    def num_points(self) -> int:
        return int(self.pixels.shape[0])


@dataclass(frozen=True)
class LocalizationSolution:
    """Estimated 6-DoF pose plus solver diagnostics."""

    pose: Pose
    residual: float  # RMS angular residual, radians
    num_pairs: int
    converged: bool


def _ray_directions(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Unit camera-frame ray directions for pixels (+X forward)."""
    cx, cy = intrinsics.center
    dir_y = -(pixels[:, 0] - cx) / intrinsics.focal_x
    dir_z = -(pixels[:, 1] - cy) / intrinsics.focal_y
    rays = np.column_stack([np.ones(pixels.shape[0]), dir_y, dir_z])
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _angular_residuals(
    world_points: np.ndarray, rays: np.ndarray, pairs: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-pair angle residuals as a function of ``(..., 3)`` camera positions.

    A single position gives ``(num_pairs,)`` residuals (the polish); a
    ``(members, 3)`` population gives ``(members, num_pairs)`` in one pass.
    """
    # Perceived angle per pair: pose-free, from pixels alone.
    cos_perceived = np.clip((rays[pairs[:, 0]] * rays[pairs[:, 1]]).sum(1), -1, 1)
    perceived = np.arccos(cos_perceived)
    # Coordinates on the leading axis: sums over x/y/z become row adds.
    points_i = np.ascontiguousarray(world_points[pairs[:, 0]].T)
    points_j = np.ascontiguousarray(world_points[pairs[:, 1]].T)

    def residuals(positions: np.ndarray) -> np.ndarray:
        at = np.asarray(positions)[..., :, None]
        to_i = points_i - at
        to_j = points_j - at
        norm_i = np.sqrt((to_i * to_i).sum(-2))
        norm_j = np.sqrt((to_j * to_j).sum(-2))
        safe = np.maximum(norm_i * norm_j, 1e-9)
        cos_geometric = np.clip((to_i * to_j).sum(-2) / safe, -1.0, 1.0)
        return np.arccos(cos_geometric) - perceived

    return residuals


def _soft_l1_energy(residuals: np.ndarray) -> np.ndarray:
    """Soft-L1 cost summed over the last axis.

    Soft-L1 keeps stray wrong matches from dominating the basin.
    """
    return np.sum(2.0 * (np.sqrt(1.0 + residuals**2) - 1.0), axis=-1)


class AngularLocalizer:
    """Solves :class:`LocalizationProblem` instances."""

    def __init__(
        self,
        max_pairs: int = 80,
        de_max_iterations: int = 40,
        de_population: int = 20,
        seed: int = 0,
    ) -> None:
        if max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
        self.max_pairs = int(max_pairs)
        self.de_max_iterations = int(de_max_iterations)
        self.de_population = int(de_population)
        self.seed = int(seed)

    def _select_pairs(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Keypoint index pairs (i < j), subsampled to the pair budget."""
        pairs = np.column_stack(np.triu_indices(count, 1))
        if pairs.shape[0] > self.max_pairs:
            chosen = rng.choice(pairs.shape[0], size=self.max_pairs, replace=False)
            pairs = pairs[np.sort(chosen)]
        return pairs

    def solve(self, problem: LocalizationProblem) -> LocalizationSolution:
        """Estimate the camera pose for one query."""
        if problem.num_points < 3:
            center = (problem.bounds_low + problem.bounds_high) / 2.0
            return LocalizationSolution(
                pose=Pose(x=center[0], y=center[1], z=center[2]),
                residual=np.inf,
                num_pairs=0,
                converged=False,
            )
        rng = np.random.default_rng(self.seed)
        pairs = self._select_pairs(problem.num_points, rng)
        rays = _ray_directions(problem.pixels, problem.intrinsics)
        residuals = _angular_residuals(problem.world_points, rays, pairs)
        start, spread_stop = self._evolve(
            residuals, problem.bounds_low, problem.bounds_high, rng
        )
        polish = optimize.least_squares(
            residuals,
            start,
            loss="soft_l1",
            bounds=(problem.bounds_low, problem.bounds_high),
            max_nfev=200,
        )
        position = polish.x
        final = residuals(position)
        rms = float(np.sqrt(np.mean(final**2)))

        pose = self._recover_orientation(problem, rays, position)
        return LocalizationSolution(
            pose=pose,
            residual=rms,
            num_pairs=int(pairs.shape[0]),
            converged=bool(spread_stop or polish.success),
        )

    def _evolve(
        self,
        residuals: Callable[[np.ndarray], np.ndarray],
        low: np.ndarray,
        high: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, bool]:
        """Bounded best1bin differential evolution over the whole population.

        Members live in the unit cube and every generation is scored in
        one broadcast ``residuals`` pass.  Returns the best position and
        whether the population's energy spread fell below tolerance
        (False when the generation budget ran out first).
        """
        span = high - low
        size = self.de_population * low.size
        members = np.arange(size)
        # Latin hypercube: one member per stratum on each axis.
        strata = (members[:, None] + rng.uniform(size=(size, low.size))) / size
        unit = rng.permuted(strata, axis=0)
        energy = _soft_l1_energy(residuals(low + unit * span))
        for _ in range(self.de_max_iterations):
            # Two distinct donors per member, neither the member itself.
            first = rng.integers(1, size, size)
            second = rng.integers(1, size - 1, size)
            second += second >= first
            donor_a, donor_b = (members + first) % size, (members + second) % size
            scale = rng.uniform(0.5, 1.0)  # dithered once per generation
            mutant = unit[np.argmin(energy)] + scale * (unit[donor_a] - unit[donor_b])
            cross = rng.uniform(size=unit.shape) < _CROSSOVER
            cross[members, rng.integers(0, low.size, size)] = True
            trial = np.where(cross, mutant, unit)
            # Out-of-box coordinates are re-drawn uniformly, never clipped:
            # clipping piles trials onto the box faces and biases the search.
            outside = (trial < 0.0) | (trial > 1.0)
            trial[outside] = rng.uniform(size=np.count_nonzero(outside))
            trial_energy = _soft_l1_energy(residuals(low + trial * span))
            accept = trial_energy <= energy
            unit[accept] = trial[accept]
            energy[accept] = trial_energy[accept]
            if np.std(energy) <= _SPREAD_TOLERANCE * abs(np.mean(energy)):
                return low + unit[np.argmin(energy)] * span, True
        return low + unit[np.argmin(energy)] * span, False

    @staticmethod
    def _recover_orientation(
        problem: LocalizationProblem, rays: np.ndarray, position: np.ndarray
    ) -> Pose:
        """Kabsch-fit the rotation mapping camera rays onto world directions."""
        world_dirs = problem.world_points - position
        norms = np.linalg.norm(world_dirs, axis=1, keepdims=True)
        world_dirs = world_dirs / np.maximum(norms, 1e-9)
        covariance = rays.T @ world_dirs
        u, _, vt = np.linalg.svd(covariance)
        sign = np.sign(np.linalg.det(vt.T @ u.T))
        rotation = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
        yaw = float(np.arctan2(rotation[1, 0], rotation[0, 0]))
        pitch = float(np.arcsin(np.clip(-rotation[2, 0], -1.0, 1.0)))
        roll = float(np.arctan2(rotation[2, 1], rotation[2, 2]))
        return Pose(
            x=float(position[0]),
            y=float(position[1]),
            z=float(position[2]),
            yaw=yaw,
            pitch=pitch,
            roll=roll,
        )
