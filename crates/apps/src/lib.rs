//! # brook-apps — the Brook+ reference application suite
//!
//! The paper's evaluation (§6) uses the reference applications shipped
//! with AMD's Brook+ release: "financial algorithms (Binomial Option
//! Pricing and Black Scholes), matrix operations (SpMV and sgemm),
//! sorting and binary searching, image filtering and fractal generation
//! (mandelbrot), prefix sum and a graph processing algorithm (Floyd
//! Warshall)", plus the `flops` capability benchmark of Figure 1.
//!
//! Every application follows the paper's structure: seeded, size-
//! parametrized input generation; a CPU reference implementation used to
//! validate the GPU output; and statistics reporting through
//! [`framework::measure`], which feeds the `perf-model` timing models
//! with counters measured by the `gles2-sim` substrate.

pub mod binary_search;
pub mod binomial;
pub mod bitonic_sort;
pub mod black_scholes;
pub mod flops;
pub mod floyd_warshall;
pub mod framework;
pub mod image_filter;
pub mod mandelbrot;
pub mod prefix_sum;
pub mod sgemm;
pub mod spmv;

pub use framework::{
    measure, registered_backends, run_backend_matrix, BackendRun, BackendSpec, MeasuredPoint, PaperApp,
    PlatformKind,
};

/// All eleven applications, in the order the figures present them.
pub fn all_apps() -> Vec<Box<dyn PaperApp>> {
    vec![
        Box::new(flops::Flops::default()),
        Box::new(binomial::Binomial),
        Box::new(black_scholes::BlackScholes),
        Box::new(prefix_sum::PrefixSum),
        Box::new(spmv::Spmv),
        Box::new(binary_search::BinarySearch),
        Box::new(bitonic_sort::BitonicSort),
        Box::new(floyd_warshall::FloydWarshall),
        Box::new(image_filter::ImageFilter::default()),
        Box::new(mandelbrot::Mandelbrot),
        Box::new(sgemm::Sgemm),
    ]
}

/// The kernel source of each of the eleven applications, named and
/// ordered as in the figures.
pub fn kernel_sources() -> Vec<(&'static str, String)> {
    vec![
        ("flops", flops::Flops::default().kernel_source()),
        ("binomial", binomial::kernel_source()),
        ("black_scholes", black_scholes::KERNEL.to_string()),
        ("prefix_sum", prefix_sum::KERNEL.to_string()),
        ("spmv", spmv::kernel_source()),
        ("binary_search", binary_search::KERNEL.to_string()),
        ("bitonic_sort", bitonic_sort::KERNEL.to_string()),
        ("floyd_warshall", floyd_warshall::KERNEL.to_string()),
        ("image_filter", image_filter::KERNEL.to_string()),
        ("mandelbrot", mandelbrot::kernel_source()),
        ("sgemm", sgemm::kernel_source(8)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_apps() {
        let apps = all_apps();
        assert_eq!(apps.len(), 11);
        let names: Vec<_> = apps.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"flops"));
        assert!(names.contains(&"sgemm"));
        assert!(names.contains(&"floyd_warshall"));
    }
}
