"""Joint sensing and task-oriented communications simulator.

Two encoders at a transmitter compress an image and the probe signal
reflected off the pictured object; a decoder at a fusion-center receiver
classifies the target as a potential transmitter (vehicle) or not (animal)
from both received vectors. All three networks train end-to-end through
differentiable AWGN or Rayleigh channels.
"""

__version__ = "0.1.0"
