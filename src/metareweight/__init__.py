"""Online example reweighting for biased training sets.

Each SGD step scores the current batch by how well every example's gradient
aligns with the gradient of a small trusted validation set, rectifies and
normalizes the scores into weights, and applies one weighted update. The
package bundles the weighting routes, classic baselines, dataset bias
generators, a training harness, and an empirical verification suite for the
convergence properties of the underlying update rule.
"""

__version__ = "0.1.0"
