"""OpenCV-free image-processing substrate for the RainBar reproduction.

Everything the decoder and channel simulator need — color conversion,
filtering, projective geometry, sub-pixel sampling, noise and quality
metrics — implemented directly on NumPy arrays.
"""

from .color import hsv_to_rgb, luminance, normalize_frame, rgb_to_hsv, to_float, to_uint8
from .filters import (
    box_blur,
    convolve_separable,
    gaussian_blur,
    gaussian_kernel,
    mean_filter,
    motion_blur,
)
from .geometry import (
    PinholeSetup,
    apply_homography,
    estimate_homography,
    radial_distort_points,
    radial_undistort_points,
    warp_perspective,
)
from .interpolation import sample_bilinear, sample_nearest
from .metrics import gradient_energy, mean_abs_error, psnr
from .noise import (
    add_ambient_light,
    add_gaussian_noise,
    add_shot_noise,
    scale_brightness,
    vignette,
)

__all__ = [
    "rgb_to_hsv",
    "hsv_to_rgb",
    "luminance",
    "to_float",
    "to_uint8",
    "normalize_frame",
    "convolve_separable",
    "mean_filter",
    "box_blur",
    "gaussian_kernel",
    "gaussian_blur",
    "motion_blur",
    "estimate_homography",
    "apply_homography",
    "warp_perspective",
    "radial_distort_points",
    "radial_undistort_points",
    "PinholeSetup",
    "sample_bilinear",
    "sample_nearest",
    "gradient_energy",
    "psnr",
    "mean_abs_error",
    "add_gaussian_noise",
    "add_shot_noise",
    "add_ambient_light",
    "scale_brightness",
    "vignette",
]
