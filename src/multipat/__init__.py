"""Antenna pattern reconstruction from multipath probe voltages.

Represent far fields as truncated vector-spherical-harmonic series,
simulate probe voltages in a random multipath chamber, calibrate the
chamber channel from reference antennas, and reconstruct an unknown
antenna's pattern, radiation resistance, and directivity from its probe
voltages alone.
"""

__version__ = "0.1.0"
