//! Linear BVH construction, and the four-wide tree the tracer walks.
//!
//! The build is the LBVH variant the SC16 ray-tracing model assumes
//! (`c0 * O` build complexity): Morton codes over primitive centroids (map),
//! radix sort (the `dpp` sort primitive), then a top-down radix split on the
//! sorted codes. That gives a binary tree; `Bvh::from_binary` collapses it
//! in linear time into the tree that is walked, whose nodes hold four child
//! boxes in lanes (the layout of Embree's wide BVHs, which OSPRay walks):
//! a node keeps opening its largest-area interior child until it has four.
//! The split BVH (`sbvh`) is collapsed the same way.
//!
//! Traversal is one ray per data-parallel lane with a short stack, ordered
//! as in Aila & Laine's kernels and the tuned CPU tracers Chapter II compares
//! against: a node tests its four child boxes in one exit-free lane loop and
//! pushes the ones the ray enters farthest-first, each with its entry
//! distance, so the nearest is entered next and a child whose entry lies
//! past the closest hit found by then is dropped on pop. Ties in `t` go to
//! the triangle whose first position in `prim_order` is earlier (the split
//! BVH may reference a triangle twice, and the walk may meet only the later
//! copy), and a triangle's box holds every hit `intersect_triangle` accepts
//! (`TriGeometry::tri_aabb`), so whatever the tree's shape, the hit is the
//! brute-force minimum over `prim_order`. The builders lay leaves out in
//! preorder and the collapse keeps a node's lanes in preorder
//! ([`Bvh::validate`] and `validate_split` check it). The tests hold the walk
//! to the binary tree's ordered walk and to that brute force, `Hit` for
//! `Hit`, bit for bit.

use super::geometry::TriGeometry;
use dpp::sort::sort_pairs_u64;
use dpp::{map, Device};
use std::cell::RefCell;
use vecmath::{morton3, Aabb, Ray, Vec3};

/// Maximum primitives per leaf (the study's EAVL tracer used 8).
pub const MAX_LEAF_SIZE: usize = 8;

/// Children per node of the walked tree.
const LANES: usize = 4;

/// One value per lane of a node.
type Row = [f32; LANES];

/// Rows per node: the children's min x, max x, min y, max y, min z, max z,
/// then their `child` and `count` as `f32` bits (see [`WideNode`]), which
/// `f32::from_bits` and `to_bits` carry unchanged.
const ROWS: usize = 8;

/// Bytes per cache line; a node spans two.
const LINE: usize = 64;

/// The `child` of a lane that holds no child.
const NO_CHILD: u32 = u32::MAX;

/// A node with no child in any lane: its boxes are empty (min +∞, max −∞),
/// which a slab test taken near plane first never enters.
const EMPTY_NODE: [Row; ROWS] = [
    [f32::INFINITY; LANES],
    [f32::NEG_INFINITY; LANES],
    [f32::INFINITY; LANES],
    [f32::NEG_INFINITY; LANES],
    [f32::INFINITY; LANES],
    [f32::NEG_INFINITY; LANES],
    [f32::from_bits(NO_CHILD); LANES],
    [0.0; LANES],
];

thread_local! {
    /// The walk's stack, one per thread, grown to the deepest tree walked
    /// on the thread so far and reused by every ray after: a stack set up
    /// per ray would cost in proportion to its size on every ray that
    /// enters the root.
    static STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// Binary BVH node, the builders' output. `count > 0` marks a leaf over
/// `prim_order[start..start+count]`; otherwise the left child is `self + 1`
/// and the right child is `right`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BvhNode {
    pub(crate) aabb: Aabb,
    pub(crate) right: u32,
    pub(crate) start: u32,
    pub(crate) count: u32,
}

/// A builder's binary tree over its `prim_order`, before the collapse.
#[derive(Debug, Clone)]
pub(crate) struct BinaryBvh {
    pub(crate) nodes: Vec<BvhNode>,
    pub(crate) prim_order: Vec<u32>,
    /// See [`Bvh`]'s field of the name.
    pub(crate) first_pos: Vec<u32>,
}

/// For a `prim_order` over `num_prims` triangles that names some more than
/// once, each position's triangle's first position in it; empty when every
/// triangle appears once.
pub(crate) fn first_positions(prim_order: &[u32], num_prims: usize) -> Vec<u32> {
    if prim_order.len() <= num_prims {
        return Vec::new();
    }
    let mut first = vec![u32::MAX; num_prims];
    (0..prim_order.len() as u32)
        .map(|pos| {
            let first = &mut first[prim_order[pos as usize] as usize];
            *first = (*first).min(pos);
            *first
        })
        .collect()
}

/// The rank by which the walks break a tie in `t`: the first position in
/// `prim_order` of the triangle at `pos` (see [`Bvh`]'s `first_pos`).
#[inline(always)]
fn tie_rank(first_pos: &[u32], pos: usize) -> usize {
    first_pos.get(pos).map_or(pos, |&first| first as usize)
}

/// The four-wide nodes, [`ROWS`] rows each, in one vector of rows whose
/// node 0 starts on a cache line, so each node spans two lines. A vector of
/// a 64-byte-aligned node type would place them so too, but through an
/// aligned allocation, which glibc's allocator serves by splitting a larger
/// chunk; at one per build, those splits grew the heap (the `insitu_surface`
/// benchmark's peak RSS rose by a tenth and more on x86-64 Linux).
#[derive(Debug)]
struct NodeRows {
    rows: Vec<Row>,
    /// Padding rows before node 0 (0–3).
    first: usize,
}

impl NodeRows {
    /// Room for `nodes` nodes, so pushing that many keeps node 0 in place.
    fn with_capacity(nodes: usize) -> NodeRows {
        let row = std::mem::size_of::<Row>();
        let mut rows = Vec::with_capacity(nodes * ROWS + LINE / row);
        let first = (rows.as_ptr() as usize).wrapping_neg() % LINE / row;
        rows.resize(first, [0.0; LANES]);
        NodeRows { rows, first }
    }

    fn nodes(&self) -> &[[Row; ROWS]] {
        self.rows[self.first..].as_chunks().0
    }

    /// Append a node with no children; returns its index.
    fn push_empty(&mut self) -> u32 {
        let index = self.nodes().len() as u32;
        self.rows.extend_from_slice(&EMPTY_NODE);
        index
    }

    fn set_lane(&mut self, node: u32, lane: usize, aabb: &Aabb, child: u32, count: u32) {
        let at = self.first + node as usize * ROWS;
        let rows = &mut self.rows[at..at + ROWS];
        for axis in 0..3 {
            rows[2 * axis][lane] = aabb.min[axis];
            rows[2 * axis + 1][lane] = aabb.max[axis];
        }
        rows[6][lane] = f32::from_bits(child);
        rows[7][lane] = f32::from_bits(count);
    }
}

impl Clone for NodeRows {
    /// A copy whose node 0 starts on a line of its own allocation.
    fn clone(&self) -> NodeRows {
        let mut copy = NodeRows::with_capacity(self.nodes().len());
        copy.rows.extend_from_slice(&self.rows[self.first..]);
        copy
    }
}

/// Four-wide BVH node, read in place: lane `i` is child `i`, the lanes in
/// preorder, the used ones first.
#[derive(Debug, Clone, Copy)]
pub struct WideNode<'a>(&'a [Row; ROWS]);

impl WideNode<'_> {
    /// Lane `lane`'s child: for a leaf lane (`count > 0`) the start of its
    /// range of `prim_order`, for an interior lane the index of its node,
    /// for an unused lane `u32::MAX`.
    pub fn child(&self, lane: usize) -> u32 {
        self.0[6][lane].to_bits()
    }

    /// Lane `lane`'s leaf size; 0 for an interior or unused lane.
    pub fn count(&self, lane: usize) -> u32 {
        self.0[7][lane].to_bits()
    }

    /// The number of used lanes.
    pub fn used_lanes(&self) -> usize {
        (0..LANES).take_while(|&l| self.child(l) != NO_CHILD).count()
    }

    /// Lane `lane`'s box.
    pub fn lane_box(&self, lane: usize) -> Aabb {
        let b = self.0;
        Aabb {
            min: Vec3::new(b[0][lane], b[2][lane], b[4][lane]),
            max: Vec3::new(b[1][lane], b[3][lane], b[5][lane]),
        }
    }
}

/// A bounding volume hierarchy over a [`TriGeometry`]: four-wide nodes, the
/// root at index 0.
#[derive(Debug, Clone)]
pub struct Bvh {
    nodes: NodeRows,
    /// Primitive indices in tree order; leaves reference ranges of this.
    pub prim_order: Vec<u32>,
    /// Where `prim_order` names a triangle more than once (the split BVH's
    /// duplicated references), each position's triangle's first position,
    /// the rank by which a tie in `t` is broken; empty where every triangle
    /// appears once and a position is its own rank. A copy whose clipped box
    /// misses the hit point can then lose no tie: any copy the walk meets
    /// ranks as the first.
    first_pos: Vec<u32>,
    /// The root's box; empty for an empty tree.
    root: Aabb,
    /// Stack entries a walk can need: `3 * depth + 1`, `depth` counting the
    /// nodes on the tree's longest root-to-leaf path.
    stack_len: usize,
}

/// A ray-triangle hit record. `prim == u32::MAX` marks a miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub t: f32,
    pub prim: u32,
    pub u: f32,
    pub v: f32,
}

impl Hit {
    pub const MISS: Hit = Hit { t: f32::INFINITY, prim: u32::MAX, u: 0.0, v: 0.0 };

    #[inline]
    pub fn is_hit(&self) -> bool {
        self.prim != u32::MAX
    }
}

/// Möller-Trumbore ray/triangle intersection. Returns `(t, u, v)`.
#[inline]
pub fn intersect_triangle(ray: &Ray, v0: Vec3, e1: Vec3, e2: Vec3) -> Option<(f32, f32, f32)> {
    let p = ray.dir.cross(e2);
    let det = e1.dot(p);
    if det.abs() < 1e-12 {
        return None;
    }
    let inv_det = 1.0 / det;
    let tv = ray.origin - v0;
    let u = tv.dot(p) * inv_det;
    if !(-1e-6..=1.0 + 1e-6).contains(&u) {
        return None;
    }
    let q = tv.cross(e1);
    let v = ray.dir.dot(q) * inv_det;
    if v < -1e-6 || u + v > 1.0 + 1e-6 {
        return None;
    }
    let t = e2.dot(q) * inv_det;
    if t > 1e-6 {
        Some((t, u.clamp(0.0, 1.0), v.clamp(0.0, 1.0)))
    } else {
        None
    }
}

/// One pending child of the walk: a node (`count == 0`) or a leaf range,
/// with the distance at which the ray enters its box.
#[derive(Debug, Clone, Copy)]
struct StackEntry {
    child: u32,
    count: u32,
    near: f32,
}

const NO_ENTRY: StackEntry = StackEntry { child: 0, count: 0, near: 0.0 };

/// A ray set up for slab tests against the boxes of a [`WideNode`].
///
/// Each axis's slab is taken near plane first by the sign of the ray's
/// `inv_dir` (Williams et al.), so no per-box min/max of the two plane
/// distances is needed; the near plane's distance is picked by value, which
/// is one select over a node's four lanes. On a ray parallel to an axis
/// whose origin lies on one of that axis's box planes, the plane's term is
/// 0·∞ = NaN; the running max (min) keeps its value when a term is NaN, as
/// `f32::max` (`f32::min`) would, so the NaN leaves the entry or exit
/// distance to the other axes, and the ray, which lies in the closed slab,
/// keeps the box. (A min/max of the two plane terms, as
/// `Aabb::intersect_ray` takes, turns that NaN into the other plane's ±∞
/// and drops the box.)
struct Slabs {
    origin: Vec3,
    inv_dir: Vec3,
}

impl Slabs {
    #[inline(always)]
    fn new(ray: &Ray) -> Slabs {
        Slabs { origin: ray.origin, inv_dir: ray.inv_dir }
    }

    /// The distance at which the ray enters the box `b`, clipped to
    /// `[0, t_max]`, and whether it enters it there.
    #[inline(always)]
    fn enter(&self, b: &Aabb, t_max: f32) -> (f32, bool) {
        let (o, inv) = (self.origin, self.inv_dir);
        let mut t_near = 0.0f32;
        let mut t_far = t_max;
        for axis in 0..3 {
            let t0 = (b.min[axis] - o[axis]) * inv[axis];
            let t1 = (b.max[axis] - o[axis]) * inv[axis];
            let (n, f) = if inv[axis] < 0.0 { (t1, t0) } else { (t0, t1) };
            // `if t > acc { t } else { acc }` keeps `acc` when `t` is NaN
            // and is one SIMD max over the lanes (likewise for min).
            t_near = if n > t_near { n } else { t_near };
            t_far = if f < t_far { f } else { t_far };
        }
        (t_near, t_near <= t_far)
    }
}

impl Bvh {
    /// Build over all triangles of `geom` using the given device for the
    /// data-parallel stages (Morton map + radix sort).
    pub fn build(device: &Device, geom: &TriGeometry) -> Bvh {
        Bvh::from_binary(build_lbvh(device, geom))
    }

    /// Collapse a builder's binary tree into four-wide nodes, in time linear
    /// in its size. Each wide node starts from a binary interior node's two
    /// children and keeps replacing its largest-area interior child (the
    /// first of equal areas) by that child's two children until it has four
    /// or only leaves; a replaced child's children take its place, so the
    /// lanes stay in preorder. Wide nodes are laid out in preorder too.
    pub(crate) fn from_binary(binary: BinaryBvh) -> Bvh {
        let BinaryBvh { nodes: bin, prim_order, first_pos } = binary;
        // A wide node takes the place of at least one binary interior node.
        let mut nodes = NodeRows::with_capacity(bin.len().div_ceil(2));
        let root = bin.first().map_or(Aabb::empty(), |node| node.aabb);
        let depth = match bin.first() {
            None => 0,
            Some(leaf) if leaf.count > 0 => {
                let node = nodes.push_empty();
                nodes.set_lane(node, 0, &leaf.aabb, leaf.start, leaf.count);
                1
            }
            Some(_) => collapse(&bin, 0, &mut nodes),
        };
        Bvh { nodes, prim_order, first_pos, root, stack_len: 3 * depth + 1 }
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.nodes().len()
    }

    /// Node `index`; the root is node 0.
    pub fn node(&self, index: u32) -> WideNode<'_> {
        WideNode(&self.nodes.nodes()[index as usize])
    }

    /// Stack entries a walk of this tree can need (a node pushes up to four
    /// children after its own entry is popped).
    pub fn stack_len(&self) -> usize {
        self.stack_len
    }

    /// Closest-hit traversal.
    #[inline]
    pub fn closest_hit(&self, geom: &TriGeometry, ray: &Ray) -> Hit {
        self.traverse(geom, ray, f32::INFINITY, false)
    }

    /// Any-hit traversal with a maximum distance (shadow/occlusion rays).
    #[inline]
    pub fn any_hit(&self, geom: &TriGeometry, ray: &Ray, max_t: f32) -> bool {
        self.traverse(geom, ray, max_t, true).is_hit()
    }

    fn traverse(&self, geom: &TriGeometry, ray: &Ray, max_t: f32, any: bool) -> Hit {
        let slabs = Slabs::new(ray);
        let (near, enters) = slabs.enter(&self.root, max_t);
        if !enters {
            return Hit::MISS;
        }
        self.walk_entered(near, &slabs, geom, ray, max_t, any)
    }

    /// The walk of a ray that enters the root's box at `near`, on the
    /// thread's stack, grown to [`Bvh::stack_len`] if it is shorter. Kept
    /// out of line, so a ray that misses the root pays for no stack.
    #[inline(never)]
    fn walk_entered(
        &self,
        near: f32,
        slabs: &Slabs,
        geom: &TriGeometry,
        ray: &Ray,
        max_t: f32,
        any: bool,
    ) -> Hit {
        let root = StackEntry { child: 0, count: 0, near };
        STACK.with_borrow_mut(|stack| {
            if stack.len() < self.stack_len {
                stack.resize(self.stack_len, NO_ENTRY);
            }
            self.walk(stack, root, slabs, geom, ray, max_t, any)
        })
    }

    /// Ordered four-wide walk from `root` (the root node, entered). A node's
    /// four boxes are slab-tested ([`Slabs`]) in one exit-free lane loop
    /// against `[0, closest]`; the children the ray enters are pushed
    /// farthest first, so the nearest is popped next, and a popped child is
    /// skipped when its entry distance is past `closest`. Equal `t` goes to
    /// the lower [`tie_rank`].
    #[allow(clippy::too_many_arguments, reason = "the ray's two set-ups, its stack and its bound")]
    #[inline(always)]
    fn walk(
        &self,
        stack: &mut [StackEntry],
        root: StackEntry,
        slabs: &Slabs,
        geom: &TriGeometry,
        ray: &Ray,
        max_t: f32,
        any: bool,
    ) -> Hit {
        let nodes = self.nodes.nodes();
        let mut best = Hit::MISS;
        // Tie rank of `best`; 0 while it is a miss, so a tie with `max_t`
        // is never a hit.
        let mut best_rank = 0usize;
        let mut closest = max_t;
        stack[0] = root;
        let mut sp = 1usize;
        while sp > 0 {
            sp -= 1;
            let StackEntry { child, count, near } = stack[sp];
            if near > closest {
                continue;
            }
            if count > 0 {
                let start = child as usize;
                for pos in start..start + count as usize {
                    let prim = self.prim_order[pos];
                    let p = prim as usize;
                    if let Some((t, u, v)) =
                        intersect_triangle(ray, geom.v0[p], geom.e1[p], geom.e2[p])
                    {
                        let rank = tie_rank(&self.first_pos, pos);
                        if t < closest || (t == closest && rank < best_rank) {
                            closest = t;
                            best_rank = rank;
                            best = Hit { t, prim, u, v };
                            if any {
                                return best;
                            }
                        }
                    }
                }
                continue;
            }
            let node = &nodes[child as usize];
            let mut enter = [0.0f32; LANES];
            let mut hit = [false; LANES];
            for l in 0..LANES {
                (enter[l], hit[l]) = slabs.enter(&WideNode(node).lane_box(l), closest);
            }
            // Insert each entered child below those of this node it must be
            // popped after: the farther, and on equal distance the earlier
            // lane stays on top (it is earlier in preorder).
            let base = sp;
            for l in 0..LANES {
                if !hit[l] {
                    continue;
                }
                let (child, count) = (node[6][l].to_bits(), node[7][l].to_bits());
                let entry = StackEntry { child, count, near: enter[l] };
                let mut at = sp;
                while at > base && stack[at - 1].near <= entry.near {
                    stack[at] = stack[at - 1];
                    at -= 1;
                }
                stack[at] = entry;
                sp += 1;
            }
        }
        best
    }

    /// Validate structural invariants: those of `validate_tree` (children
    /// inside parents, bounded leaves in preorder, a stack for the depth),
    /// plus every primitive referenced exactly once and contained in its
    /// leaf's AABB. Used by tests and debug assertions.
    pub fn validate(&self, geom: &TriGeometry) -> Result<(), String> {
        let mut seen = vec![false; geom.num_tris()];
        self.validate_tree(geom, |leaf, start, count| {
            for i in start..start + count {
                let p = self.prim_order[i as usize] as usize;
                if std::mem::replace(&mut seen[p], true) {
                    return Err(format!("prim {p} referenced twice"));
                }
                if !leaf.contains_box(&geom.tri_aabb(p)) {
                    return Err(format!("prim {p} escapes its leaf's AABB"));
                }
            }
            Ok(())
        })
    }

    /// The invariants of every builder's tree, duplicate references allowed:
    /// used lanes before unused ones, every interior lane's box around all
    /// of its node's boxes, leaves of at most [`MAX_LEAF_SIZE`] references,
    /// every primitive referenced, leaves that, visited in preorder (lane 0
    /// first), take increasing, non-overlapping ranges of `prim_order` — the
    /// ordered walk's tie rule depends on that — and a [`Bvh::stack_len`]
    /// that covers the tree's depth. `leaf` sees each leaf's box, start and
    /// count, in that order.
    pub(crate) fn validate_tree(
        &self,
        geom: &TriGeometry,
        mut leaf: impl FnMut(&Aabb, u32, u32) -> Result<(), String>,
    ) -> Result<(), String> {
        if geom.num_tris() == 0 {
            return Ok(());
        }
        let mut seen = vec![false; geom.num_tris()];
        let mut next_start = 0;
        let mut max_depth = 0;
        // Preorder over lanes: (child, count, depth of the node it is a lane
        // of, its box); the root node's box is the tree's root box.
        let mut stack = vec![(0u32, 0u32, 0usize, self.root)];
        while let Some((child, count, depth, lane_box)) = stack.pop() {
            if count > 0 {
                if count as usize > MAX_LEAF_SIZE {
                    return Err(format!("leaf at {child} has {count} refs"));
                }
                if child < next_start {
                    return Err(format!(
                        "leaf at {child} of prim_order starts before the end ({next_start}) \
                         of the leaf preceding it in preorder"
                    ));
                }
                next_start = child + count;
                for i in child..next_start {
                    seen[self.prim_order[i as usize] as usize] = true;
                }
                leaf(&lane_box, child, count)?;
                continue;
            }
            let Some(node) = self.nodes.nodes().get(child as usize).map(WideNode) else {
                return Err(format!("node {child} is out of range"));
            };
            max_depth = max_depth.max(depth + 1);
            let used = node.used_lanes();
            if used == 0 || (used..LANES).any(|l| node.child(l) != NO_CHILD) {
                return Err(format!("node {child} has no child or a gap between its lanes"));
            }
            // Last lane pushed first, so lane 0 is visited next.
            for lane in (0..used).rev() {
                let inner = node.lane_box(lane);
                if !lane_box.contains_box(&inner) {
                    return Err(format!("lane {lane} of node {child} escapes its parent's box"));
                }
                let (c, n) = (node.child(lane), node.count(lane));
                if n == 0 && c <= child {
                    return Err(format!("lane {lane} of node {child} points back to {c}"));
                }
                stack.push((c, n, depth + 1, inner));
            }
        }
        if self.stack_len < 3 * max_depth + 1 {
            return Err(format!(
                "stack of {} entries for a tree {max_depth} nodes deep",
                self.stack_len
            ));
        }
        if let Some(p) = seen.iter().position(|s| !s) {
            return Err(format!("prim {p} unreferenced"));
        }
        Ok(())
    }
}

/// Collapse the binary subtree under interior node `b` into wide nodes
/// appended to `wide` in preorder (see `Bvh::from_binary`); returns the
/// depth of the wide subtree in nodes.
fn collapse(bin: &[BvhNode], b: u32, wide: &mut NodeRows) -> usize {
    let node = &bin[b as usize];
    let mut kids = [b + 1, node.right, 0, 0];
    let mut n = 2;
    while n < LANES {
        let mut open: Option<(usize, f32)> = None;
        for (i, &k) in kids[..n].iter().enumerate() {
            let kid = &bin[k as usize];
            let area = kid.aabb.surface_area();
            if kid.count == 0 && open.is_none_or(|(_, a)| area > a) {
                open = Some((i, area));
            }
        }
        let Some((i, _)) = open else { break };
        let k = kids[i];
        kids.copy_within(i + 1..n, i + 2);
        kids[i] = k + 1;
        kids[i + 1] = bin[k as usize].right;
        n += 1;
    }
    let me = wide.push_empty();
    let mut depth = 0;
    for (lane, &k) in kids[..n].iter().enumerate() {
        let kid = &bin[k as usize];
        if kid.count > 0 {
            wide.set_lane(me, lane, &kid.aabb, kid.start, kid.count);
        } else {
            let at = wide.nodes().len() as u32;
            depth = depth.max(collapse(bin, k, wide));
            wide.set_lane(me, lane, &kid.aabb, at, 0);
        }
    }
    depth + 1
}

/// The LBVH's binary tree over all triangles of `geom`.
pub(crate) fn build_lbvh(device: &Device, geom: &TriGeometry) -> BinaryBvh {
    let n = geom.num_tris();
    if n == 0 {
        return BinaryBvh { nodes: Vec::new(), prim_order: Vec::new(), first_pos: Vec::new() };
    }
    // Centroid bounds for Morton normalization.
    let centroids: Vec<Vec3> = map(device, n, |i| geom.tri_centroid(i));
    let cb = dpp::reduce(
        device,
        &map(device, n, |i| (centroids[i], centroids[i])),
        (Vec3::splat(f32::INFINITY), Vec3::splat(f32::NEG_INFINITY)),
        |a, b| (a.0.min(b.0), a.1.max(b.1)),
    );
    let cbounds = Aabb { min: cb.0, max: cb.1 };

    // Morton codes (map) + radix sort (dpp primitive).
    let mut codes: Vec<u64> = map(device, n, |i| {
        let q = cbounds.normalize_point(centroids[i]);
        morton3(q.x, q.y, q.z) as u64
    });
    let mut order: Vec<u32> = (0..n as u32).collect();
    sort_pairs_u64(device, &mut codes, &mut order);

    // Per-primitive AABBs in sorted order.
    let prim_aabbs: Vec<Aabb> = map(device, n, |i| geom.tri_aabb(order[i] as usize));

    let mut nodes: Vec<BvhNode> = Vec::with_capacity(2 * n);
    build_range(&mut nodes, &codes, &prim_aabbs, 0, n, 29);
    BinaryBvh { nodes, prim_order: order, first_pos: Vec::new() }
}

/// Recursive radix-split build over the Morton-sorted range `[start, end)`.
/// Returns the index of the created node.
fn build_range(
    nodes: &mut Vec<BvhNode>,
    codes: &[u64],
    prim_aabbs: &[Aabb],
    start: usize,
    end: usize,
    bit: i32,
) -> usize {
    let my_index = nodes.len();
    let count = end - start;
    if count <= MAX_LEAF_SIZE {
        let mut aabb = Aabb::empty();
        for bb in &prim_aabbs[start..end] {
            aabb = aabb.union(bb);
        }
        nodes.push(BvhNode { aabb, right: 0, start: start as u32, count: count as u32 });
        return my_index;
    }
    // Find the split point: first index whose code has `bit` set. When the
    // Morton bits are exhausted (duplicate codes), fall back to a median
    // split so leaves stay bounded.
    let split = if bit < 0 {
        start + count / 2
    } else {
        let mask = 1u64 << bit;
        if codes[start] & mask == codes[end - 1] & mask {
            // All codes share this bit — descend to the next bit without
            // creating a node.
            return build_range(nodes, codes, prim_aabbs, start, end, bit - 1);
        }
        start + partition_point(&codes[start..end], |c| c & mask == 0)
    };
    // Reserve our slot, then build children (left is adjacent in preorder).
    nodes.push(BvhNode { aabb: Aabb::empty(), right: 0, start: 0, count: 0 });
    let left = build_range(nodes, codes, prim_aabbs, start, split, bit - 1);
    debug_assert_eq!(left, my_index + 1);
    let right = build_range(nodes, codes, prim_aabbs, split, end, bit - 1);
    let aabb = nodes[left].aabb.union(&nodes[right].aabb);
    nodes[my_index].aabb = aabb;
    nodes[my_index].right = right as u32;
    my_index
}

/// `slice.partition_point` for sorted-by-predicate slices (stable here to
/// avoid relying on total ordering of the raw codes).
fn partition_point(codes: &[u64], pred: impl Fn(u64) -> bool) -> usize {
    let mut lo = 0;
    let mut hi = codes.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(codes[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
impl BinaryBvh {
    /// The binary tree's ordered walk, the one the four-wide walk replaced
    /// and its oracle: an interior node tests both children's boxes
    /// (`Aabb::intersect_ray`) and pushes the farther first, the left on a
    /// tie; a popped node is skipped when its entry distance is past
    /// `closest`; equal `t` goes to the lower [`tie_rank`].
    pub(crate) fn ordered_walk(&self, geom: &TriGeometry, ray: &Ray, max_t: f32, any: bool) -> Hit {
        let Some(root) = self.nodes.first() else { return Hit::MISS };
        let Some((root_near, _)) = root.aabb.intersect_ray(ray, 0.0, max_t) else {
            return Hit::MISS;
        };
        let mut best = Hit::MISS;
        let mut best_rank = 0usize;
        let mut closest = max_t;
        let mut stack = vec![(0u32, root_near)];
        while let Some((ni, near)) = stack.pop() {
            if near > closest {
                continue;
            }
            let node = &self.nodes[ni as usize];
            if node.count > 0 {
                let start = node.start as usize;
                for pos in start..start + node.count as usize {
                    let prim = self.prim_order[pos];
                    let p = prim as usize;
                    if let Some((t, u, v)) =
                        intersect_triangle(ray, geom.v0[p], geom.e1[p], geom.e2[p])
                    {
                        let rank = tie_rank(&self.first_pos, pos);
                        if t < closest || (t == closest && rank < best_rank) {
                            closest = t;
                            best_rank = rank;
                            best = Hit { t, prim, u, v };
                            if any {
                                return best;
                            }
                        }
                    }
                }
            } else {
                let (l, r) = (ni + 1, node.right);
                let enter_l = self.nodes[l as usize].aabb.intersect_ray(ray, 0.0, closest);
                let enter_r = self.nodes[r as usize].aabb.intersect_ray(ray, 0.0, closest);
                match (enter_l, enter_r) {
                    (Some((nl, _)), Some((nr, _))) => {
                        if nr < nl {
                            stack.extend([(l, nl), (r, nr)]);
                        } else {
                            stack.extend([(r, nr), (l, nl)]);
                        }
                    }
                    (Some((nl, _)), None) => stack.push((l, nl)),
                    (None, Some((nr, _))) => stack.push((r, nr)),
                    (None, None) => {}
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::{field_grid, FieldKind};
    use mesh::external_faces::external_faces_hex;
    use mesh::isosurface::isosurface;

    fn test_geom() -> TriGeometry {
        let g = field_grid(FieldKind::ShockShell, [16, 16, 16]);
        let m = isosurface(&g, "scalar", 0.5, None);
        assert!(m.num_tris() > 100);
        TriGeometry::from_mesh(&m)
    }

    #[test]
    fn build_is_valid_on_both_devices() {
        let geom = test_geom();
        for d in [Device::Serial, Device::parallel()] {
            let bvh = Bvh::build(&d, &geom);
            bvh.validate(&geom).unwrap();
        }
    }

    #[test]
    fn traversal_matches_brute_force() {
        let geom = test_geom();
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = vecmath::Camera::close_view(&geom.bounds);
        let mut hits = 0;
        for py in (0..64).step_by(7) {
            for px in (0..64).step_by(7) {
                let ray = cam.primary_ray(px, py, 64, 64, 0.5, 0.5);
                let h = bvh.closest_hit(&geom, &ray);
                assert_eq!(hit_bits(h), hit_bits(brute_force(&bvh, &geom, &ray)), "({px},{py})");
                hits += h.is_hit() as u32;
            }
        }
        assert!(hits > 10, "camera should see the shell ({hits} hits)");
    }

    /// The nearest hit over `prim_order` in position order, first one kept.
    fn brute_force(bvh: &Bvh, geom: &TriGeometry, ray: &Ray) -> Hit {
        let mut best = Hit::MISS;
        for &prim in &bvh.prim_order {
            let p = prim as usize;
            if let Some((t, u, v)) = intersect_triangle(ray, geom.v0[p], geom.e1[p], geom.e2[p]) {
                if t < best.t {
                    best = Hit { t, prim, u, v };
                }
            }
        }
        best
    }

    #[test]
    fn leaves_out_of_preorder_are_refused() {
        let geom = TriGeometry::from_mesh(&mesh::TriMesh {
            points: vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::Z],
            tris: vec![[0, 1, 2], [0, 1, 3]],
            scalars: vec![0.0; 4],
        });
        let root = |first: u32, second: u32| {
            let mut nodes = NodeRows::with_capacity(1);
            let node = nodes.push_empty();
            nodes.set_lane(node, 0, &geom.tri_aabb(first as usize), first, 1);
            nodes.set_lane(node, 1, &geom.tri_aabb(second as usize), second, 1);
            let root = geom.tri_aabb(0).union(&geom.tri_aabb(1));
            Bvh { nodes, prim_order: vec![0, 1], first_pos: Vec::new(), root, stack_len: 4 }
        };
        // Lane 0 holds the second entry of `prim_order`.
        let err = root(1, 0).validate(&geom).unwrap_err();
        assert!(err.contains("preorder"), "{err}");
        root(0, 1).validate(&geom).unwrap();
        let shallow = Bvh { stack_len: 3, ..root(0, 1) };
        assert!(shallow.validate(&geom).unwrap_err().contains("stack"));
    }

    fn hit_bits(h: Hit) -> (u32, u32, u32, u32) {
        (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits())
    }

    /// The wide walk agrees with the binary tree's ordered walk `Hit` for
    /// `Hit` on `rays`, and any-hit for any-hit at `max_t` one ulp short of
    /// and one ulp past the closest `t` (past it, both may miss: a box whose
    /// slab entry rounds above the triangle's `t` is culled). Returns the
    /// number of hits.
    fn agree_with_binary_walk(
        binary: &BinaryBvh,
        bvh: &Bvh,
        geom: &TriGeometry,
        rays: impl Iterator<Item = Ray>,
    ) -> u64 {
        let mut hits = 0;
        for ray in rays {
            let wide = bvh.closest_hit(geom, &ray);
            let ordered = binary.ordered_walk(geom, &ray, f32::INFINITY, false);
            assert_eq!(hit_bits(wide), hit_bits(ordered), "{ray:?}: {wide:?} vs {ordered:?}");
            if wide.is_hit() {
                hits += 1;
                let (under, over) = (wide.t.to_bits() - 1, wide.t.to_bits() + 1);
                for max_t in [under, over].map(f32::from_bits) {
                    let any = bvh.any_hit(geom, &ray, max_t);
                    let ordered = binary.ordered_walk(geom, &ray, max_t, true).is_hit();
                    assert_eq!(any, ordered, "{ray:?} at max_t {max_t}");
                }
            } else {
                assert!(!bvh.any_hit(geom, &ray, f32::INFINITY));
            }
        }
        hits
    }

    /// The wide walk returns the binary ordered walk's `Hit`, bit for bit,
    /// on every pixel of both 288² views of every LULESH step the
    /// `insitu_surface` benchmark can render (up to 15 pre-steps, then a
    /// 32-cycle period: steps 0–47), and the same any-hit answers just
    /// short of and just past each hit. Debug builds check every eighth step
    /// and every fifth row and column.
    #[test]
    fn wide_walk_is_the_binary_walk_on_the_surface_workload() {
        let (step_stride, px_stride) = if cfg!(debug_assertions) { (8, 5) } else { (1, 1) };
        let side = 288;
        let mut sim = sims::Lulesh::new(24);
        let mut hits = 0u64;
        for step in 0..48 {
            if step > 0 {
                sims::ProxySim::step(&mut sim);
            }
            if step % step_stride != 0 && step != 47 {
                continue;
            }
            let hexes = sim.hex_mesh();
            let geom = TriGeometry::from_mesh(&external_faces_hex(&hexes, Some("e_p")));
            let binary = build_lbvh(&Device::Serial, &geom);
            let bvh = Bvh::from_binary(binary.clone());
            bvh.validate(&geom).unwrap();
            let bounds = hexes.bounds();
            for cam in [vecmath::Camera::close_view(&bounds), vecmath::Camera::far_view(&bounds)] {
                let rays = cam.pixel_rays(side, side);
                let pixels = (0..side)
                    .step_by(px_stride)
                    .flat_map(|py| (0..side).step_by(px_stride).map(move |px| (px, py)));
                let rays = pixels.map(|(px, py)| rays.ray(px, py, 0.5, 0.5));
                hits += agree_with_binary_walk(&binary, &bvh, &geom, rays);
            }
        }
        assert!(hits > 1000, "the views should see the mesh ({hits} hits)");
    }

    /// Equal Morton codes leave the LBVH only median splits: at n = 2¹⁶
    /// copies of one triangle the tree is as deep as it gets for its size,
    /// its stack covers that depth, and every ray meets every copy at one
    /// `t`, so the walk must keep position 0.
    #[test]
    fn degenerate_lbvh_walks_within_its_stack() {
        let n = 1 << 16;
        let geom = TriGeometry::from_mesh(&mesh::TriMesh {
            points: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            tris: vec![[0, 1, 2]; n],
            scalars: vec![0.0; 3],
        });
        let binary = build_lbvh(&Device::Serial, &geom);
        let bvh = Bvh::from_binary(binary.clone());
        bvh.validate(&geom).unwrap();
        // 2¹³ leaves of eight under median splits: 14 binary levels.
        assert!(bvh.stack_len() > 3 * 7, "{}", bvh.stack_len());
        let rays = [(0.25, 0.25), (0.1, 0.7), (0.9, 0.9)]
            .map(|(x, y)| Ray::new(Vec3::new(x, y, 1.0), -Vec3::Z));
        let hits = agree_with_binary_walk(&binary, &bvh, &geom, rays.into_iter());
        assert_eq!(hits, 2);
        for ray in rays {
            assert_eq!(
                hit_bits(bvh.closest_hit(&geom, &ray)),
                hit_bits(brute_force(&bvh, &geom, &ray))
            );
        }
    }

    /// A binary chain (each interior node a one-triangle leaf and the rest)
    /// collapses to a wide tree a third as deep, deeper than the tree this
    /// thread walked before it: the walk grows the thread's stack to the
    /// deep tree's own size and still returns the binary walk's hits.
    #[test]
    fn deep_tree_walks_with_a_stack_of_its_depth() {
        let shallow_geom = test_geom();
        let shallow = Bvh::build(&Device::Serial, &shallow_geom);
        let cam = vecmath::Camera::close_view(&shallow_geom.bounds);
        let ray = cam.primary_ray(32, 32, 64, 64, 0.5, 0.5);
        assert!(shallow.closest_hit(&shallow_geom, &ray).is_hit());
        let n = 300u32;
        let mut m = mesh::TriMesh::default();
        for i in 0..n {
            let x = i as f32;
            m.points.extend([
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 0.5, 0.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            ]);
            m.scalars.extend([0.0; 3]);
            m.tris.push([3 * i, 3 * i + 1, 3 * i + 2]);
        }
        let geom = TriGeometry::from_mesh(&m);
        let mut nodes = Vec::new();
        for i in 0..n {
            let mut rest = Aabb::empty();
            for t in i..n {
                rest = rest.union(&geom.tri_aabb(t as usize));
            }
            let leaf = BvhNode { aabb: geom.tri_aabb(i as usize), right: 0, start: i, count: 1 };
            if i + 1 == n {
                nodes.push(leaf);
            } else {
                let here = nodes.len() as u32;
                nodes.push(BvhNode { aabb: rest, right: here + 2, start: 0, count: 0 });
                nodes.push(leaf);
            }
        }
        let binary = BinaryBvh { nodes, prim_order: (0..n).collect(), first_pos: Vec::new() };
        let bvh = Bvh::from_binary(binary.clone());
        bvh.validate(&geom).unwrap();
        assert!(bvh.stack_len() > 3 * shallow.stack_len(), "{}", bvh.stack_len());
        let rays = (0..n).map(|i| Ray::new(Vec3::new(i as f32 + 0.1, 0.2, -1.0), Vec3::Z));
        assert_eq!(agree_with_binary_walk(&binary, &bvh, &geom, rays), n as u64);
    }

    /// Node 0 starts on a cache line, in a built tree and in its clone,
    /// wherever the allocator hands out 16-byte-aligned blocks (every
    /// 64-bit target's `malloc` does), and the clone holds the same nodes.
    #[test]
    fn nodes_start_on_a_line() {
        let geom = test_geom();
        let bvh = Bvh::build(&Device::Serial, &geom);
        let copy = bvh.clone();
        let bits = |b: &Bvh| -> Vec<u32> {
            b.nodes.nodes().iter().flatten().flatten().map(|v| v.to_bits()).collect()
        };
        for b in [&bvh, &copy] {
            if (b.nodes.rows.as_ptr() as usize).is_multiple_of(16) {
                assert_eq!(b.nodes.nodes().as_ptr() as usize % LINE, 0);
            }
        }
        assert!(bvh.num_nodes() > 1);
        assert_eq!(bits(&bvh), bits(&copy));
    }

    /// `intersect_triangle` accepts a hit a little outside its triangle: here
    /// one ulp past the edge at x = −0.625, on a ray along y, which misses
    /// the vertices' AABB in x. The padded box holds the hit, so the walk
    /// returns it, as the brute force does.
    #[test]
    fn a_hit_just_outside_its_triangle_is_inside_its_box() {
        let geom = TriGeometry::from_mesh(&mesh::TriMesh {
            points: vec![
                Vec3::new(-1.0, 0.0, -1.0),
                Vec3::new(-0.625, 0.0, -1.0),
                Vec3::new(-0.625, 0.0, 0.0),
            ],
            tris: vec![[0, 1, 2]],
            scalars: vec![0.0; 3],
        });
        let x = f32::from_bits((-0.625f32).to_bits() - 1);
        let ray = Ray::new(Vec3::new(x, -1.0, -0.5), Vec3::Y);
        let edge = Aabb::from_corners(Vec3::new(-1.0, 0.0, -1.0), Vec3::new(-0.625, 0.0, 0.0));
        assert!(edge.intersect_ray(&ray, 0.0, f32::INFINITY).is_none());
        let bvh = Bvh::build(&Device::Serial, &geom);
        let hit = bvh.closest_hit(&geom, &ray);
        assert!(hit.is_hit());
        assert_eq!(hit_bits(hit), hit_bits(brute_force(&bvh, &geom, &ray)));
    }

    #[test]
    fn any_hit_respects_max_distance() {
        let geom = test_geom();
        let bvh = Bvh::build(&Device::Serial, &geom);
        let cam = vecmath::Camera::close_view(&geom.bounds);
        let ray = cam.primary_ray(32, 32, 64, 64, 0.5, 0.5);
        let h = bvh.closest_hit(&geom, &ray);
        assert!(h.is_hit());
        assert!(bvh.any_hit(&geom, &ray, f32::INFINITY));
        assert!(!bvh.any_hit(&geom, &ray, h.t * 0.5));
    }

    #[test]
    fn empty_geometry() {
        let empty = TriGeometry::from_mesh(&mesh::TriMesh::default());
        let bvh = Bvh::build(&Device::Serial, &empty);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        assert!(!bvh.closest_hit(&empty, &ray).is_hit());
        bvh.validate(&empty).unwrap();
    }

    #[test]
    fn moller_trumbore_edges() {
        let v0 = Vec3::ZERO;
        let e1 = Vec3::X;
        let e2 = Vec3::Y;
        // Center hit.
        let r = Ray::new(Vec3::new(0.25, 0.25, 1.0), -Vec3::Z);
        let (t, u, v) = intersect_triangle(&r, v0, e1, e2).unwrap();
        assert!((t - 1.0).abs() < 1e-6);
        assert!((u - 0.25).abs() < 1e-5 && (v - 0.25).abs() < 1e-5);
        // Miss outside.
        let r = Ray::new(Vec3::new(0.9, 0.9, 1.0), -Vec3::Z);
        assert!(intersect_triangle(&r, v0, e1, e2).is_none());
        // Parallel ray.
        let r = Ray::new(Vec3::new(0.2, 0.2, 1.0), Vec3::X);
        assert!(intersect_triangle(&r, v0, e1, e2).is_none());
        // Behind origin.
        let r = Ray::new(Vec3::new(0.25, 0.25, -1.0), -Vec3::Z);
        assert!(intersect_triangle(&r, v0, e1, e2).is_none());
    }
}
