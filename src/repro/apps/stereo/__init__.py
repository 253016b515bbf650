"""Stereo Vision (paper Section 3).

The Mars-Rover-style pipeline [26]: Tomasi-Kanade point-feature
extraction [10] followed by SVD-based point correspondence [30]
(Pilu's method), on 256x256 monochrome frames at 10 f/s.
"""
