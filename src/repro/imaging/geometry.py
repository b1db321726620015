"""Projective geometry for the screen-camera channel.

The captured images in the paper suffer perspective distortion (non-zero
view angle), scale change (distance) and radial lens distortion
(Section II).  This module provides:

* homography estimation from point correspondences (DLT),
* homography application and perspective warping of whole images,
* a pinhole model that derives the screen-to-sensor homography from the
  physical setup (distance ``d``, view angle ``v_a``, focal length), and
* radial lens distortion / undistortion.

All of it is plain NumPy linear algebra; no computer-vision library is
used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interpolation import bilinear_coeffs, sample_bilinear

__all__ = [
    "estimate_homography",
    "apply_homography",
    "warp_perspective",
    "radial_distort_points",
    "radial_undistort_points",
    "PinholeSetup",
]


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Estimate the 3x3 homography mapping *src* points to *dst* points.

    Uses the normalized direct linear transform.  At least four
    correspondences are required; with more, the least-squares solution is
    returned.  Points are ``(N, 2)`` arrays of ``(x, y)``.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError("src and dst must both be (N, 2) arrays")
    if src.shape[0] < 4:
        raise ValueError("homography estimation needs at least 4 point pairs")

    def normalise(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        centroid = points.mean(axis=0)
        scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(points - centroid, axis=1)), 1e-12)
        transform = np.array(
            [
                [scale, 0.0, -scale * centroid[0]],
                [0.0, scale, -scale * centroid[1]],
                [0.0, 0.0, 1.0],
            ]
        )
        homog = np.column_stack([points, np.ones(len(points))])
        return (transform @ homog.T).T[:, :2], transform

    src_n, t_src = normalise(src)
    dst_n, t_dst = normalise(dst)

    rows = []
    for (x, y), (u, v) in zip(src_n, dst_n):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.asarray(rows)
    __, __, vt = np.linalg.svd(a)
    h_n = vt[-1].reshape(3, 3)

    h = np.linalg.inv(t_dst) @ h_n @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise np.linalg.LinAlgError("degenerate homography (h33 ~ 0)")
    return h / h[2, 2]


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map ``(N, 2)`` points (or a single ``(2,)`` point) through *h*."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    homog = np.column_stack([pts, np.ones(len(pts))])
    mapped = (np.asarray(h, dtype=np.float64) @ homog.T).T
    w = mapped[:, 2:3]
    if np.any(np.abs(w) < 1e-12):
        raise ValueError("point maps to infinity under homography")
    out = mapped[:, :2] / w
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


def warp_perspective(
    image: np.ndarray,
    h: np.ndarray,
    output_shape: tuple[int, int],
    fill: float = 0.0,
) -> np.ndarray:
    """Warp *image* by homography *h* into an output of ``(height, width)``.

    *h* maps **source** coordinates to **destination** coordinates; the
    warp inverse-maps each destination pixel and samples bilinearly,
    which is the standard artifact-free direction.

    Only the source image's footprint is sampled: every destination
    pixel is inverse-mapped, but the bilinear terms and the gather run
    on the bounding box of the pixels that land inside the source, and
    the rest of the output is *fill*.  Pixels inside the box get exactly
    the values a whole-grid sample would give them; pixels whose mapped
    point is outside the source or not finite are *fill* either way.
    """
    height, width = output_shape
    src = np.asarray(image)
    src_h, src_w = int(src.shape[0]), int(src.shape[1])
    h_arr = np.ascontiguousarray(h, dtype=np.float64)
    key = (h_arr.tobytes(), height, width, src_h, src_w)
    entry = _WARP_COORD_CACHE.get(key)
    if entry is None:
        h_inv = np.linalg.inv(h_arr)
        pts = _pixel_grid(height, width)
        mapped = h_inv @ pts
        mapped_x = (mapped[0] / mapped[2]).reshape(height, width)
        mapped_y = (mapped[1] / mapped[2]).reshape(height, width)
        # Same bounds test as `bilinear_coeffs`; comparisons against a
        # NaN or infinite coordinate are false, so those stay outside.
        inside = (
            (mapped_x >= 0.0)
            & (mapped_x <= src_w - 1.0)
            & (mapped_y >= 0.0)
            & (mapped_y <= src_h - 1.0)
        )
        rows = np.flatnonzero(inside.any(axis=1))
        cols = np.flatnonzero(inside.any(axis=0))
        if rows.size == 0:
            entry = (None, None)
        else:
            roi = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
            entry = (roi, bilinear_coeffs(mapped_x[roi], mapped_y[roi], src_h, src_w))
        _WARP_COORD_CACHE.clear()
        _WARP_COORD_CACHE[key] = entry
    roi, coeffs = entry
    out = np.full((height, width) + src.shape[2:], fill, dtype=np.float64)
    if roi is not None:
        out[roi] = sample_bilinear(image, None, None, fill=fill, coeffs=coeffs)
    return out


#: The last warp's footprint box and its bilinear terms, keyed by
#: (homography bytes, output shape, source shape).  One entry only: a
#: tripod session reuses one homography, so every capture after the
#: first skips the inverse map, projective divide and index arithmetic;
#: a handheld session draws a new homography per capture and would
#: never hit an older entry.
_WARP_COORD_CACHE: dict[tuple[bytes, int, int, int, int], tuple] = {}

_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _pixel_grid(height: int, width: int) -> np.ndarray:
    """Cached homogeneous pixel-coordinate grid (3, H*W)."""
    key = (height, width)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
        grid = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
        if len(_GRID_CACHE) > 8:
            _GRID_CACHE.clear()
        _GRID_CACHE[key] = grid
    return grid


def radial_distort_points(
    points: np.ndarray,
    center: tuple[float, float],
    k1: float,
    k2: float = 0.0,
    norm_radius: float | None = None,
) -> np.ndarray:
    """Apply the radial lens model ``r' = r (1 + k1 r^2 + k2 r^4)``.

    Radii are normalized by *norm_radius* (defaults to the distance from
    *center* to the farthest input point) so the coefficients stay
    comparable across image sizes.  This models the "straight lines become
    arcs" effect the paper lists among decoding challenges.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cx, cy = center
    rel = pts - np.array([cx, cy])
    radius = np.linalg.norm(rel, axis=1)
    if norm_radius is None:
        norm_radius = max(float(radius.max()), 1e-9)
    rn = radius / norm_radius
    factor = 1.0 + k1 * rn**2 + k2 * rn**4
    out = np.array([cx, cy]) + rel * factor[:, np.newaxis]
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


def radial_undistort_points(
    points: np.ndarray,
    center: tuple[float, float],
    k1: float,
    k2: float = 0.0,
    norm_radius: float = 1.0,
    iterations: int = 8,
) -> np.ndarray:
    """Invert :func:`radial_distort_points` by fixed-point iteration.

    *norm_radius* must match the value used when distorting.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cx, cy = center
    rel = pts - np.array([cx, cy])
    guess = rel.copy()
    for __ in range(iterations):
        rn = np.linalg.norm(guess, axis=1) / norm_radius
        factor = 1.0 + k1 * rn**2 + k2 * rn**4
        guess = rel / factor[:, np.newaxis]
    out = np.array([cx, cy]) + guess
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


@dataclass(frozen=True)
class PinholeSetup:
    """Physical screen/camera arrangement, reduced to a homography.

    The screen is a planar rectangle of ``screen_size_px`` pixels with
    physical width ``screen_width_cm``.  The camera sits on the screen's
    optical axis at ``distance_cm``, rotated ``view_angle_deg`` about the
    vertical axis (the paper's v_a), with an ideal pinhole of focal
    length ``focal_px`` expressed in sensor pixels.  ``sensor_size_px``
    is ``(height, width)`` of the captured image.

    This is the substitution for the paper's hand-held Galaxy S4 camera:
    it reproduces exactly the geometric degradations the evaluation
    sweeps (distance -> scale, view angle -> perspective foreshortening).
    """

    screen_size_px: tuple[int, int]  # (height, width) of displayed frame
    sensor_size_px: tuple[int, int]  # (height, width) of captured image
    screen_width_cm: float = 11.0  # Galaxy S4 display width
    distance_cm: float = 12.0
    view_angle_deg: float = 0.0
    tilt_angle_deg: float = 0.0  # rotation about the horizontal axis
    focal_px: float | None = None  # default chosen to frame the screen at 12 cm
    offset_px: tuple[float, float] = (0.0, 0.0)  # translation of the projection

    def _focal(self) -> float:
        if self.focal_px is not None:
            return self.focal_px
        # Default focal length: the screen spans ~82% of the sensor width
        # at 9 cm, so it still fits at the paper's 8 cm minimum distance
        # and at 45 deg view angles without leaving the sampling box.
        sensor_w = self.sensor_size_px[1]
        return 0.82 * sensor_w * 9.0 / self.screen_width_cm

    def screen_corners_px(self) -> np.ndarray:
        """Screen corner pixel coordinates (x, y), TL/TR/BR/BL order."""
        height, width = self.screen_size_px
        return np.array(
            [[0.0, 0.0], [width - 1.0, 0.0], [width - 1.0, height - 1.0], [0.0, height - 1.0]]
        )

    def project_screen_points(self, points_px: np.ndarray) -> np.ndarray:
        """Project screen pixel points into sensor pixel coordinates."""
        pts = np.atleast_2d(np.asarray(points_px, dtype=np.float64))
        height, width = self.screen_size_px
        cm_per_px = self.screen_width_cm / width

        # Screen plane in camera-centric coordinates: origin at screen
        # center, x right, y down, z away from camera.
        world = np.zeros((len(pts), 3))
        world[:, 0] = (pts[:, 0] - (width - 1) / 2.0) * cm_per_px
        world[:, 1] = (pts[:, 1] - (height - 1) / 2.0) * cm_per_px

        yaw = np.deg2rad(self.view_angle_deg)
        pitch = np.deg2rad(self.tilt_angle_deg)
        rot_yaw = np.array(
            [
                [np.cos(yaw), 0.0, np.sin(yaw)],
                [0.0, 1.0, 0.0],
                [-np.sin(yaw), 0.0, np.cos(yaw)],
            ]
        )
        rot_pitch = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(pitch), -np.sin(pitch)],
                [0.0, np.sin(pitch), np.cos(pitch)],
            ]
        )
        world = world @ (rot_pitch @ rot_yaw).T
        world[:, 2] += self.distance_cm

        focal = self._focal()
        sensor_h, sensor_w = self.sensor_size_px
        cx = (sensor_w - 1) / 2.0 + self.offset_px[0]
        cy = (sensor_h - 1) / 2.0 + self.offset_px[1]
        if np.any(world[:, 2] <= 0):
            raise ValueError("screen point behind the camera; reduce view angle")
        u = focal * world[:, 0] / world[:, 2] + cx
        v = focal * world[:, 1] / world[:, 2] + cy
        out = np.column_stack([u, v])
        if np.asarray(points_px).ndim == 1:
            return out[0]
        return out

    def homography(self) -> np.ndarray:
        """Screen-pixel -> sensor-pixel homography for this setup."""
        corners = self.screen_corners_px()
        return estimate_homography(corners, self.project_screen_points(corners))
