"""Physical constants, unit conversions and the solver's default station count."""

import math

G = 9.81                  # gravitational acceleration [m/s^2]
RHO_SL = 1.225            # air density, sea level ISA [kg/m^3]
RHO_CRUISE = 1.167        # air density at the 500 m cruise altitude [kg/m^3]
HP_TO_W = 745.7           # mechanical horsepower [W]
RPM_TO_RAD_S = math.pi / 30.0

N_STATIONS = 100          # BEMT stations per blade unless a caller asks for others
