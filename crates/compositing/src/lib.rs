//! Sort-last parallel image compositing — the IceT stand-in.
//!
//! In sort-last rendering every rank renders its own sub-domain into a
//! full-resolution image; compositing merges the per-rank images into one.
//! Two merge semantics exist (Chapter IV / V):
//!
//! * **Z-buffer** — opaque surface rendering (ray tracing, rasterization):
//!   per pixel, the fragment with the smallest depth wins.
//! * **Ordered alpha** — volume rendering: fragments are blended with the
//!   *over* operator in visibility order (rank index = front-to-back order;
//!   the caller sorts ranks by view depth first, as Strawman does).
//!
//! Three classic algorithms are implemented as barriered rounds of the
//! [`mpirt::EventWorld`] simulated clock, so rank counts up to the paper's
//! 1024-rank Titan runs are simulated with measured compute and modeled
//! transfer time: [`direct_send_opts`], [`binary_swap_opts`], and
//! [`radix_k_opts`] (direct send == radix-k with one factor P; binary swap
//! == radix-k with factors all 2).
//!
//! Exchanges ship run-length-compressed active-pixel spans ([`SpanImage`])
//! by default ([`ExchangeOptions::default`]), mirroring IceT's compression of
//! background pixels; pass [`ExchangeOptions::dense`] to measure the
//! uncompressed exchange. Both produce pixel-identical output.
//!
//! Every exchange takes its per-rank input as [`Pixels`] — owned
//! [`RankImage`]s, or [`PixelView`]s borrowing a renderer's framebuffers,
//! encoded where they lie — and both forms run the same code.
//!
//! A fourth, *asynchronous* mode lives in [`dfb`]: Distributed FrameBuffer
//! tile compositing on the same clock with no barrier, which overlaps
//! rendering with the exchange while staying byte-identical to the
//! serial [`reference()`] under any fragment arrival order.
//!
//! A [`CompositeWire`] names the three exchanges the compositing models are
//! fitted on (dense radix-k, compressed radix-k, the DFB), and [`compose`]
//! runs the one it names. Every exchange's per-round bytes are the
//! [`mpirt::RoundBytes`] its world recorded.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod algorithms;
pub mod dfb;
pub mod image;
pub mod rle;

pub use algorithms::{
    binary_swap_opts, compose, direct_send_opts, radix_k_opts, reference, CompositeStats,
    CompositeWire, ExchangeOptions,
};
pub use dfb::{dfb_compose_opts, dfb_compose_shuffled, dfb_compose_staggered};
pub use image::{CompositeMode, PixelView, Pixels, RankImage};
pub use rle::SpanImage;
