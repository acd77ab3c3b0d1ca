"""Estimator base class implementing the get_params/set_params protocol.

The protocol matches scikit-learn's conventions (constructor stores
hyperparameters verbatim, ``fit`` returns ``self``, fitted state lives in
trailing-underscore attributes) so instances cooperate with generic
machinery such as ``sklearn.base.clone`` without a scikit-learn dependency.
"""

import functools
import inspect

from .exceptions import NotFittedError


class BaseEstimator:
    @classmethod
    @functools.cache
    def _param_names(cls) -> tuple[str, ...]:
        """Constructor parameter names, parsed once per class."""
        sig = inspect.signature(cls.__init__)
        return tuple(
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def clone(self):
        """Fresh unfitted instance with identical hyperparameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, attribute: str = "tau_") -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} instance is not fitted; call fit() first"
        )
