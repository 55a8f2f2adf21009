//! Runtime kernel selection by name.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::kernel::SpmvKernel;
use crate::spec::KernelSpec;
use crate::KernelError;

/// A name → backend table. In a [`KernelRegistry::builtin`] registry
/// every spec-grammar name resolves (including parameterized forms like
/// `bcsr:4` or `sell:16:64`, parsed through [`KernelSpec`] on demand);
/// a [`KernelRegistry::empty`] registry is *strict* — only explicitly
/// registered names resolve, so callers can restrict the kernel set.
/// Custom backends can be registered on top and shadow the built-ins.
pub struct KernelRegistry {
    kernels: BTreeMap<String, Arc<dyn SpmvKernel>>,
    /// Whether unregistered names may fall back to the spec grammar.
    spec_fallback: bool,
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl KernelRegistry {
    /// An empty, strict registry: nothing resolves — not even `csr` —
    /// until it is registered. Use this to whitelist an audited or
    /// restricted kernel set.
    pub fn empty() -> Self {
        KernelRegistry {
            kernels: BTreeMap::new(),
            spec_fallback: false,
        }
    }

    /// A registry pre-populated with the five built-in kernels under
    /// their default parameters.
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        for spec in [
            KernelSpec::Csr,
            KernelSpec::CsrPar { threads: 0 },
            KernelSpec::Bcsr {
                block: KernelSpec::DEFAULT_BCSR_BLOCK,
            },
            KernelSpec::Sell {
                chunk: KernelSpec::DEFAULT_SELL_CHUNK,
                sigma: KernelSpec::DEFAULT_SELL_SIGMA,
            },
            KernelSpec::Auto,
        ] {
            reg.register(Arc::from(spec.kernel()));
        }
        reg.spec_fallback = true;
        reg
    }

    /// Registers (or replaces) a kernel under its own
    /// [`SpmvKernel::name`].
    pub fn register(&mut self, kernel: Arc<dyn SpmvKernel>) {
        self.kernels.insert(kernel.name(), kernel);
    }

    /// Looks a kernel up by name. Exact registered names win, then the
    /// name's canonical spec label (`bcsr` ≡ `bcsr:2`, `sell` ≡
    /// `sell:8:32`, …). In a [`KernelRegistry::builtin`] registry an
    /// unregistered spec-grammar name (`bcsr:4`, `csr-par:2`, …) is
    /// built on demand; a strict
    /// ([`KernelRegistry::empty`]-based) registry rejects it instead.
    pub fn get(&self, name: &str) -> Result<Arc<dyn SpmvKernel>, KernelError> {
        let name = name.trim();
        if let Some(k) = self.kernels.get(name) {
            return Ok(Arc::clone(k));
        }
        let spec = KernelSpec::parse(name)?;
        if let Some(k) = self.kernels.get(&spec.label()) {
            return Ok(Arc::clone(k));
        }
        if self.spec_fallback {
            Ok(Arc::from(spec.kernel()))
        } else {
            Err(KernelError::UnknownKernel(name.to_string()))
        }
    }

    /// Registered kernel names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.kernels.keys().cloned().collect()
    }

    /// `(name, description)` pairs for every registered kernel, sorted
    /// by name — the `--kernel list` catalog.
    pub fn catalog(&self) -> Vec<(String, String)> {
        self.kernels
            .iter()
            .map(|(n, k)| (n.clone(), k.description()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::PreparedSpmv;
    use ftcg_sparse::{gen, CsrMatrix};

    #[test]
    fn builtins_resolve_by_name() {
        let reg = KernelRegistry::builtin();
        for name in ["csr", "csr-par", "bcsr:2", "sell:8:32", "auto"] {
            assert!(reg.get(name).is_ok(), "{name}");
        }
        // Default aliases and parameterized forms resolve via the spec
        // grammar even though only canonical names are registered.
        for name in ["bcsr", "bcsr:4", "sell", "sell:16:64", "csr-par:3"] {
            assert!(reg.get(name).is_ok(), "{name}");
        }
        assert!(reg.get("simd-magic").is_err());
    }

    #[test]
    fn names_are_sorted_and_stable() {
        let reg = KernelRegistry::builtin();
        let names = reg.names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names, vec!["auto", "bcsr:2", "csr", "csr-par", "sell:8:32"]);
    }

    #[test]
    fn empty_registry_is_strict() {
        let reg = KernelRegistry::empty();
        assert!(matches!(reg.get("csr"), Err(KernelError::UnknownKernel(_))));
        assert!(reg.get("bcsr:4").is_err());
        // Registering makes exactly that kernel available.
        let mut reg = KernelRegistry::empty();
        reg.register(Arc::from(KernelSpec::Csr.kernel()));
        assert!(reg.get("csr").is_ok());
        assert!(reg.get("sell").is_err());
    }

    #[test]
    fn catalog_has_descriptions() {
        for (name, desc) in KernelRegistry::builtin().catalog() {
            assert!(!desc.is_empty(), "{name} lacks a description");
        }
    }

    #[test]
    fn custom_kernel_shadows_builtin() {
        struct Doubler;
        struct PreparedDoubler(usize);
        impl crate::SpmvKernel for Doubler {
            fn name(&self) -> String {
                "csr".into()
            }
            fn description(&self) -> String {
                "test stub".into()
            }
            fn prepare<'a>(
                &self,
                a: &'a CsrMatrix,
            ) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
                Ok(Box::new(PreparedDoubler(a.n_rows())))
            }
        }
        impl PreparedSpmv for PreparedDoubler {
            fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
                for (yi, xi) in y.iter_mut().zip(x) {
                    *yi = 2.0 * xi;
                }
            }
            fn backend(&self) -> String {
                "doubler".into()
            }
            fn n_rows(&self) -> usize {
                self.0
            }
            fn n_cols(&self) -> usize {
                self.0
            }
        }
        let mut reg = KernelRegistry::builtin();
        reg.register(Arc::new(Doubler));
        let a = gen::tridiagonal(4, 2.0, -1.0).unwrap();
        let p = reg.get("csr").unwrap().prepare(&a).unwrap();
        assert_eq!(p.spmv(&[1.0, 1.0, 1.0, 1.0]), vec![2.0; 4]);
    }
}
