"""The scipy differential-evolution pose solve, kept as a parity reference.

``AngularLocalizer.solve`` once called ``scipy.optimize.differential_evolution``
with a scalar objective, evaluated once per population member.  The
production solver now runs the same best1bin scheme over the whole
population in one numpy pass; this module keeps the scipy version, and the
list-comprehension pair builder it used, so tests and
``benchmarks/bench_solver.py`` can compare the two.  Test-only: nothing
under ``src/`` imports it.

It also holds :func:`make_problem` and :func:`seeded_problems`, the
synthetic queries shared by the solver tests and the solver benchmark.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.geometry import CameraIntrinsics, PinholeCamera, Pose
from repro.localization import (
    AngularLocalizer,
    LocalizationProblem,
    LocalizationSolution,
)
from repro.localization.solver import _ray_directions

__all__ = [
    "make_problem",
    "scalar_objective",
    "seeded_problems",
    "select_pairs_listcomp",
    "solve_scipy_de",
]


def make_problem(
    true_pose: Pose,
    num_points: int,
    rng: np.random.Generator,
    pixel_noise: float = 0.5,
    wrong: int = 0,
) -> LocalizationProblem:
    """Project known landmarks through a camera and build the problem.

    ``wrong`` correspondences (two or more) trade world points in a
    cyclic shift, so each is matched to another landmark in view, the
    way a repeated floor tile or door knob matches the wrong place.
    """
    intrinsics = CameraIntrinsics()
    camera = PinholeCamera(intrinsics, true_pose)
    camera_points = np.column_stack(
        [
            rng.uniform(3, 9, num_points),
            rng.uniform(-2, 2, num_points),
            rng.uniform(-1, 1, num_points),
        ]
    )
    world = camera.pose.to_world(camera_points)
    pixels, visible = camera.project(world)
    pixels = pixels[visible] + rng.normal(0, pixel_noise, (visible.sum(), 2))
    world = world[visible]
    if wrong:
        swapped = rng.choice(world.shape[0], size=wrong, replace=False)
        world[swapped] = world[np.roll(swapped, 1)]
    return LocalizationProblem(
        pixels=pixels,
        world_points=world,
        intrinsics=intrinsics,
        bounds_low=np.array([0.0, 0.0, 0.0]),
        bounds_high=np.array([20.0, 20.0, 3.0]),
    )


def seeded_problems(
    count: int, num_points: int, wrong: int = 0, seed: int = 7_000
) -> list[tuple[LocalizationProblem, Pose]]:
    """``(problem, true_pose)`` pairs, the k-th drawn from ``seed + k``."""
    cases = []
    for index in range(count):
        rng = np.random.default_rng(seed + index)
        pose = Pose(
            x=float(rng.uniform(4, 16)),
            y=float(rng.uniform(4, 16)),
            z=1.5,
            yaw=float(rng.uniform(-np.pi, np.pi)),
        )
        cases.append((make_problem(pose, num_points, rng, wrong=wrong), pose))
    return cases


def select_pairs_listcomp(
    max_pairs: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The original O(n^2) Python pair builder."""
    pairs = np.array(
        [(i, j) for i in range(count) for j in range(i + 1, count)],
        dtype=np.int64,
    )
    if pairs.shape[0] > max_pairs:
        chosen = rng.choice(pairs.shape[0], size=max_pairs, replace=False)
        pairs = pairs[np.sort(chosen)]
    return pairs


def scalar_objective(problem: LocalizationProblem, pairs: np.ndarray):
    """``(residuals, objective)`` for one position at a time, as scipy saw them."""
    rays = _ray_directions(problem.pixels, problem.intrinsics)
    cos_perceived = np.clip((rays[pairs[:, 0]] * rays[pairs[:, 1]]).sum(1), -1, 1)
    perceived = np.arccos(cos_perceived)
    points_i = problem.world_points[pairs[:, 0]]
    points_j = problem.world_points[pairs[:, 1]]

    def residuals(position: np.ndarray) -> np.ndarray:
        to_i = points_i - position
        to_j = points_j - position
        norm_i = np.linalg.norm(to_i, axis=1)
        norm_j = np.linalg.norm(to_j, axis=1)
        safe = np.maximum(norm_i * norm_j, 1e-9)
        cos_geometric = np.clip((to_i * to_j).sum(1) / safe, -1.0, 1.0)
        return np.arccos(cos_geometric) - perceived

    def objective(position: np.ndarray) -> float:
        r = residuals(position)
        return float(np.sum(2.0 * (np.sqrt(1.0 + r**2) - 1.0)))

    return residuals, objective


def solve_scipy_de(
    localizer: AngularLocalizer, problem: LocalizationProblem
) -> LocalizationSolution:
    """``AngularLocalizer.solve`` as it was with scipy's differential evolution."""
    if problem.num_points < 3:
        return localizer.solve(problem)
    rng = np.random.default_rng(localizer.seed)
    pairs = select_pairs_listcomp(localizer.max_pairs, problem.num_points, rng)
    residuals, objective = scalar_objective(problem, pairs)
    de_result = optimize.differential_evolution(
        objective,
        bounds=list(zip(problem.bounds_low, problem.bounds_high)),
        maxiter=localizer.de_max_iterations,
        popsize=localizer.de_population,
        tol=1e-6,
        seed=localizer.seed,
        polish=False,
    )
    polish = optimize.least_squares(
        residuals,
        de_result.x,
        loss="soft_l1",
        bounds=(problem.bounds_low, problem.bounds_high),
        max_nfev=200,
    )
    position = polish.x
    final = residuals(position)
    rays = _ray_directions(problem.pixels, problem.intrinsics)
    return LocalizationSolution(
        pose=localizer._recover_orientation(problem, rays, position),
        residual=float(np.sqrt(np.mean(final**2))),
        num_pairs=int(pairs.shape[0]),
        converged=bool(de_result.success or polish.success),
    )
