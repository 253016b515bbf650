"""MPEG-4 video encoder core (paper Section 3).

The paper implements the three stages that dominate an MPEG-4 video
encoder's computation (~90% per Stechele [36]): block motion
estimation, the 8x8 DCT, and quantization - plus the inverse
quantization/IDCT reconstruction loop - at QCIF (176x144) and CIF
(352x288), 30 frames per second.
"""
