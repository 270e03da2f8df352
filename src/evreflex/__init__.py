"""Event+depth fusion toolkit: synthetic scenes, self-supervised optical flow,
inverse time-to-impact maps, and an evasion policy."""

__version__ = "0.1.0"

from .types import (CameraModel, EventMap, FloatMap, FlowField, MapSemantics, accumulate_events,
                    event_mask)
from .flow import FlowSolverConfig, estimate_flow, warp
from .tti import (TtiMap, estimate_tti_dynamic, estimate_tti_static, ground_truth_inverse_tti,
                  threshold_collision, tti_mse)
from .policy import EgoMotion, EvasionResult, evasion_direction, obstacle_motion_vector
from .sim import (SceneConfig, SphereObstacle, TextureSpec, TrajectorySpec, render_frame,
                  simulate_sequence)
from .metrics import aae_report, angle_error, depth_baseline, flow_aee, prf1

__all__ = [
    "CameraModel", "EventMap", "FloatMap", "FlowField", "MapSemantics", "accumulate_events",
    "event_mask",
    "FlowSolverConfig", "estimate_flow", "warp",
    "TtiMap", "estimate_tti_dynamic", "estimate_tti_static", "ground_truth_inverse_tti",
    "threshold_collision", "tti_mse",
    "EgoMotion", "EvasionResult", "evasion_direction", "obstacle_motion_vector",
    "SceneConfig", "SphereObstacle", "TextureSpec", "TrajectorySpec", "render_frame",
    "simulate_sequence",
    "aae_report", "angle_error", "depth_baseline", "flow_aee", "prf1",
]
