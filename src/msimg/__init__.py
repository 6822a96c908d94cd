"""Trajectory imaging of moving point sources from multi-frequency far-field data."""

from .forward import (FarFieldSamples, FrequencyBand, NoiseSpec, add_noise,
                      far_field_line_closed_form, far_field_value,
                      read_farfield_csv, sample_band, write_farfield_csv)
from .imaging import (ScalarField, SearchGrid, SliceSpec, contrast_metric,
                      make_grid, mask_strip, read_field_csv, slice_grid,
                      write_field_csv, write_pgm)
from .indicator import (DEFAULT_THRESHOLD, combine_directions,
                        direction_filter, filtered_field_values,
                        indicator_multi, indicator_single, picard_sums_grid)
from .spectral import (MODE_PAPER, MODE_RIGOROUS, DiagonalizationError,
                       Spectrum, build_operator, f_sharp_spectrum)
from .trajectory import (Arc, Direction, Line, ObservabilityReport,
                         PiecewiseLinear, Sampled, Strip, ThetaDomain,
                         TimeInterval, Trajectory, classify,
                         division_points, h_values, observable_set_arc,
                         observable_set_line, projection_hull, strip,
                         theta_domain, xi_extrema)

__version__ = "0.1.0"
