"""spincam: simulation and evaluation toolkit for spinning-monocular-camera
multi-robot relative localization.

A single fixed camera swept through 360 degrees by the robot's yaw spin gives
virtual omnidirectional awareness. The toolkit generates flight scenarios,
auto-annotates camera frames with relative positions / centers / bounding
boxes, decodes detections back to 3D positions, maintains a belief set of
neighbor positions, and scores downwash prediction the same way detector
benchmarks score it.

Names are imported from their modules, e.g. `from spincam.camera import
CameraModel`; the package itself defines only `__version__`.
"""

__version__ = "0.1.0"
