//! The frozen Pointer Assignment Graph and its builder.
//!
//! The graph is built once by the frontend (or the synthetic generator) and
//! then frozen into an immutable, cache-friendly CSR representation that is
//! shared read-only by all query-processing threads. The `jmp` shortcut
//! edges of the paper's extended PAG (Fig. 4) are *not* stored here — they
//! are added on the fly during the analysis and live in the solver's
//! concurrent jmp store, which overlays this read-only graph.

use crate::edge::{Edge, EdgeClass, EdgeKind, EDGE_CLASSES};
use crate::ids::{CallSiteId, FieldId, MethodId, NodeId, TypeId};
use crate::node::{NodeInfo, NodeKind, NodeName};
use crate::types::TypeTable;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// Mutable accumulator for PAG construction.
pub struct PagBuilder {
    nodes: Vec<NodeInfo>,
    edges: Vec<Edge>,
    types: TypeTable,
    method_names: Vec<String>,
    call_sites: u32,
    /// The names [`PagBuilder::add_named`] wrote, one after another.
    names: String,
}

/// [`PagBuilder::new`]: the type table predeclares `arr`.
impl Default for PagBuilder {
    fn default() -> Self {
        PagBuilder::new()
    }
}

impl PagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        PagBuilder {
            nodes: Vec::new(),
            edges: Vec::new(),
            types: TypeTable::new(),
            method_names: Vec::new(),
            call_sites: 0,
            names: String::new(),
        }
    }

    /// Creates a builder that takes ownership of an already-populated type
    /// table (the frontend interns types while parsing).
    pub fn with_types(types: TypeTable) -> Self {
        PagBuilder {
            types,
            ..PagBuilder::new()
        }
    }

    /// Adds a node and returns its id. Its name is kept as it is: a name
    /// read off another graph goes on sharing that graph's text.
    pub fn add_node(&mut self, info: NodeInfo) -> NodeId {
        let id = NodeId::from_usize(self.nodes.len());
        self.nodes.push(info);
        id
    }

    /// Adds a node named `name` and returns its id. The name is written
    /// into the builder's one text of names, which the frozen graph keeps
    /// in a single allocation: the node allocates nothing of its own.
    pub fn add_named(
        &mut self,
        kind: NodeKind,
        ty: TypeId,
        name: impl fmt::Display,
        is_application: bool,
    ) -> NodeId {
        let start = self.names.len();
        write!(self.names, "{name}").expect("writing to a String cannot fail");
        let name = NodeName::written(start, self.names.len() - start);
        self.add_node(NodeInfo {
            kind,
            ty,
            name,
            is_application,
        })
    }

    /// Adds an edge between existing nodes.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) {
        debug_assert!(src.index() < self.nodes.len(), "src out of range");
        debug_assert!(dst.index() < self.nodes.len(), "dst out of range");
        self.edges.push(Edge { src, dst, kind });
    }

    /// Registers a method name and returns its id.
    pub fn add_method(&mut self, name: impl Into<String>) -> MethodId {
        let id = MethodId::from_usize(self.method_names.len());
        self.method_names.push(name.into());
        id
    }

    /// Allocates a fresh call-site id.
    pub fn fresh_call_site(&mut self) -> crate::ids::CallSiteId {
        let id = crate::ids::CallSiteId::new(self.call_sites);
        self.call_sites += 1;
        id
    }

    /// Mutable access to the type table during construction.
    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Freezes the builder into an immutable [`Pag`], deduplicating edges
    /// and constructing the traversal indexes.
    ///
    /// Both edge arrays are laid out *kind-major* within each node's CSR
    /// range: all `new` edges first, then `assign_l`, and so on in
    /// [`EdgeClass`] order. The per-class boundaries are recorded in a
    /// 10-byte row per node (`ClassRows`) so [`Pag::incoming_classes`] /
    /// [`Pag::outgoing_classes`] are plain sub-slice reads and the solver's
    /// dispatch loops never branch on `EdgeKind` per edge. Neither side's
    /// rows are built here: each side is built by the graph's first read
    /// of it. Each node's `param` in-edges and `ret` out-edges are also
    /// indexed by call site ([`Pag::incoming_param_at`],
    /// [`Pag::outgoing_ret_at`]), on the first lookup. The node and
    /// method-name tables move into the graph at their length, without
    /// the builder's growth slack, and so does the text of the names
    /// [`PagBuilder::add_named`] wrote: one exact-size allocation that
    /// every such name points at.
    pub fn freeze(mut self) -> Pag {
        let text = Arc::new(std::mem::take(&mut self.names).into_boxed_str());
        for node in &mut self.nodes {
            node.name.freeze(&text);
        }
        self.nodes.shrink_to_fit();
        self.method_names.shrink_to_fit();
        freeze_edges(
            Arc::new(self.nodes),
            self.edges,
            Arc::new(self.types),
            Arc::new(self.method_names),
            self.call_sites,
        )
    }
}

/// Freezes `raw` (any order, duplicates allowed) over a node set: the one
/// path of [`PagBuilder::freeze`], [`Pag::with_edges`] and
/// [`Pag::apply_delta`]. Duplicate statements add nothing to reachability
/// and only slow traversals down, so they go. No comparison sort sees the
/// whole edge set: a counting pass buckets the edges by their dst, and
/// only each node's handful of edges is sorted. `raw` is dropped before
/// the tables are built.
fn freeze_edges(
    nodes: Arc<Vec<NodeInfo>>,
    raw: Vec<Edge>,
    types: Arc<TypeTable>,
    method_names: Arc<Vec<String>>,
    call_sites: u32,
) -> Pag {
    let mut edges = bucketed(&raw, nodes.len(), |e| e.dst, in_order);
    drop(raw);
    edges.dedup();
    build_pag_tables(nodes, edges, types, method_names, call_sites)
}

/// Freezes a node set and its edges, duplicate-free and in the canonical
/// incoming order (dst-major, kind-class within a node, then
/// `(src, payload)` within a class), into the immutable CSR
/// representation: the tail of [`freeze_edges`] and [`Pag::quotient`].
/// Only the field indexes are built: both sides' class rows, and with
/// them the outgoing edge array, are left to their first reads.
fn build_pag_tables(
    nodes: Arc<Vec<NodeInfo>>,
    edges: Vec<Edge>,
    types: Arc<TypeTable>,
    method_names: Arc<Vec<String>>,
    call_sites: u32,
) -> Pag {
    let variables = nodes.iter().map(|v| v.kind.is_variable()).collect();

    // Field indexes for the alias-matching step of ReachableNodes.
    let nf = types.field_count();
    let mut loads_by_field: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); nf];
    let mut stores_by_field: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); nf];
    for e in &edges {
        match e.kind {
            // Load dst = src.f: base is src.
            EdgeKind::Load(f) => loads_by_field[f.index()].push((e.src, e.dst)),
            // Store dst.f = src: base is dst.
            EdgeKind::Store(f) => stores_by_field[f.index()].push((e.dst, e.src)),
            _ => {}
        }
    }

    Pag {
        nodes,
        variables,
        edges,
        in_rows: OnceLock::new(),
        out: OnceLock::new(),
        param_in: OnceLock::new(),
        ret_out: OnceLock::new(),
        loads_by_field,
        stores_by_field,
        types,
        method_names,
        call_sites,
        revision: 0,
    }
}

/// `edges` sorted by `order`, whose leading key is `end(e)`: a counting
/// pass buckets them by `end`, then each bucket is sorted on its own.
fn bucketed<K: Ord>(
    edges: &[Edge],
    n: usize,
    end: fn(&Edge) -> NodeId,
    order: fn(&Edge) -> K,
) -> Vec<Edge> {
    let mut starts = vec![0u32; n + 1];
    for e in edges {
        starts[end(e).index() + 1] += 1;
    }
    for v in 1..=n {
        starts[v] += starts[v - 1];
    }
    // `starts[v]` is the next free slot of `v`'s bucket; once every edge
    // is placed, it is where the bucket ends.
    let mut sorted = edges.to_vec();
    for e in edges {
        let slot = &mut starts[end(e).index()];
        sorted[*slot as usize] = *e;
        *slot += 1;
    }
    let mut lo = 0;
    for &hi in &starts[..n] {
        sorted[lo..hi as usize].sort_unstable_by_key(order);
        lo = hi as usize;
    }
    sorted
}

/// What the first end byte of a wide node's [`Row`] reads. A node with
/// fewer edges on the side has every class end below it.
const WIDE: u8 = u8::MAX;

/// One node's row of a [`ClassRows`] table: where its edges start, and
/// where each class but the last ends, counted from that start. The last
/// class ends where the next node's edges start. The start is a `u32`
/// stored as bytes, so a row packs into 10 bytes (seven `u32` starts took
/// 28).
#[derive(Copy, Clone, Debug)]
struct Row {
    start: [u8; 4],
    ends: [u8; EDGE_CLASSES - 1],
}

/// Where each node's edges of each class lie in one edge array sorted by
/// `(end, class)`: a [`Row`] per node, then one whose start is the array's
/// length. A node with [`WIDE`] edges or more on the side cannot count its
/// ends in bytes. Its row is flagged (the first end reads [`WIDE`], the
/// next four its index in `wide`) and its bounds are kept whole.
#[derive(Clone, Debug)]
struct ClassRows {
    rows: Vec<Row>,
    /// The bounds of each wide node, in node order.
    wide: Vec<[u32; EDGE_CLASSES + 1]>,
}

impl ClassRows {
    /// The table of `edges`, sorted by `(end(e), class)`, over `n` nodes,
    /// read off in one sweep.
    fn of(edges: &[Edge], n: usize, end: impl Fn(&Edge) -> NodeId) -> Self {
        let mut table = ClassRows {
            rows: Vec::with_capacity(n + 1),
            wide: Vec::new(),
        };
        // The row of a node with no edges left, up to the next that has
        // some: its edges start and end at `at`.
        let empty = |at: usize| Row {
            start: (at as u32).to_le_bytes(),
            ends: [0; EDGE_CLASSES - 1],
        };
        let mut i = 0;
        while let Some(first) = edges.get(i) {
            let (v, start) = (end(first).index(), i);
            debug_assert!(v >= table.rows.len(), "edges sorted by (end, class)");
            table.rows.resize(v, empty(start));
            // A class ends after its last edge, an empty one where the
            // class before it ends.
            let mut ends = [0; EDGE_CLASSES];
            while let Some(e) = edges.get(i).filter(|e| end(e).index() == v) {
                i += 1;
                ends[e.kind.class() as usize] = (i - start) as u32;
            }
            for k in 1..EDGE_CLASSES {
                ends[k] = ends[k].max(ends[k - 1]);
            }
            table.push(start, ends);
        }
        table.rows.resize(n + 1, empty(edges.len()));
        table.wide.shrink_to_fit();
        table
    }

    /// Appends the row of a node whose edges start at `start` and whose
    /// class `k` ends `ends[k]` edges on.
    #[inline]
    fn push(&mut self, start: usize, ends: [u32; EDGE_CLASSES]) {
        let mut row = Row {
            start: (start as u32).to_le_bytes(),
            ends: [WIDE; EDGE_CLASSES - 1],
        };
        if ends[EDGE_CLASSES - 1] < WIDE as u32 {
            for (end, &at) in row.ends.iter_mut().zip(&ends) {
                *end = at as u8;
            }
        } else {
            row.ends[1..5].copy_from_slice(&(self.wide.len() as u32).to_le_bytes());
            let mut bounds = [start as u32; EDGE_CLASSES + 1];
            for (bound, &at) in bounds[1..].iter_mut().zip(&ends) {
                *bound = start as u32 + at;
            }
            self.wide.push(bounds);
        }
        self.rows.push(row);
    }

    /// Node `v`'s bounds: class `k` is `bounds[k] .. bounds[k + 1]`.
    #[inline]
    fn bounds(&self, v: usize) -> [u32; EDGE_CLASSES + 1] {
        let [row, next] = &self.rows[v..v + 2] else {
            unreachable!("a two-row range holds two rows")
        };
        if row.ends[0] == WIDE {
            return self.wide_bounds(row.ends);
        }
        let start = u32::from_le_bytes(row.start);
        let mut bounds = [start; EDGE_CLASSES + 1];
        for (bound, &end) in bounds[1..].iter_mut().zip(&row.ends) {
            *bound = start + end as u32;
        }
        bounds[EDGE_CLASSES] = u32::from_le_bytes(next.start);
        bounds
    }

    /// The bounds of the wide node whose row ends in `ends`.
    #[cold]
    fn wide_bounds(&self, ends: [u8; EDGE_CLASSES - 1]) -> [u32; EDGE_CLASSES + 1] {
        let at = u32::from_le_bytes(ends[1..5].try_into().expect("four bytes"));
        self.wide[at as usize]
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.rows.len() - 1
    }
}

/// One node's edges in one direction, split by class: the node's bounds
/// from its side's `ClassRows` table, read once, over the edge array it
/// indexes.
#[derive(Copy, Clone)]
pub struct ClassSlices<'e> {
    edges: &'e [Edge],
    bounds: [u32; EDGE_CLASSES + 1],
}

impl<'e> ClassSlices<'e> {
    /// The node's edges of `class`.
    #[inline]
    pub fn of(self, class: EdgeClass) -> &'e [Edge] {
        let k = class as usize;
        &self.edges[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// All the node's edges.
    #[inline]
    pub(crate) fn all(self) -> &'e [Edge] {
        &self.edges[self.bounds[0] as usize..self.bounds[EDGE_CLASSES] as usize]
    }
}

/// Node `n`'s classes by the table `rows` over `edges`.
#[inline]
fn classes<'e>(edges: &'e [Edge], rows: &ClassRows, n: NodeId) -> ClassSlices<'e> {
    ClassSlices {
        edges,
        bounds: rows.bounds(n.index()),
    }
}

/// One class of call edges (`param` into a node, or `ret` out of it),
/// each node's in call-site order: what finds the edges a context's top
/// site matches without scanning the rest.
#[derive(Clone, Debug)]
struct BySite {
    /// Node `v`'s entries are `entries[start[v] .. start[v + 1]]`.
    start: Vec<u32>,
    /// `(site, far end)` of each of a node's edges of the class, sorted.
    /// Within one site that is storage order: a class slice is sorted by
    /// far end, then site.
    entries: Vec<(u32, NodeId)>,
}

impl BySite {
    /// The index of `class` over the edge array `edges`, its class rows
    /// `rows` and the end of an edge away from the node (`far`).
    fn build(edges: &[Edge], rows: &ClassRows, class: EdgeClass, far: fn(&Edge) -> NodeId) -> Self {
        let n = rows.node_count();
        let site = |e: &Edge| e.kind.call_site().expect("a call edge").raw();
        let slice = |v: usize| classes(edges, rows, NodeId::from_usize(v)).of(class);
        // Sized from the rows, so the index holds no growth slack.
        let len = (0..n).map(|v| slice(v).len()).sum();
        let mut index = BySite {
            start: Vec::with_capacity(n + 1),
            entries: Vec::with_capacity(len),
        };
        index.start.push(0);
        for v in 0..n {
            let at = index.entries.len();
            index
                .entries
                .extend(slice(v).iter().map(|e| (site(e), far(e))));
            index.entries[at..].sort_unstable();
            index.start.push(index.entries.len() as u32);
        }
        index
    }

    #[inline]
    fn block(&self, v: usize) -> &[(u32, NodeId)] {
        &self.entries[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The far ends of node `v`'s edges at `site`, in storage order.
    #[inline]
    fn at(&self, v: usize, site: u32) -> impl Iterator<Item = NodeId> + '_ {
        let block = self.block(v);
        let from = block.partition_point(|&(s, _)| s < site);
        let matching = block[from..].iter().take_while(move |&&(s, _)| s == site);
        matching.map(|&(_, far)| far)
    }
}

/// The same edge set as [`Pag::edges`] materialised in `(src, class, dst)`
/// order, with its class rows, so outgoing ranges are direct slices too —
/// no index indirection on the forward hot path.
#[derive(Clone, Debug)]
struct OutSide {
    edges: Vec<Edge>,
    rows: ClassRows,
}

impl OutSide {
    /// The outgoing side of the canonical edge array `edges` over `n`
    /// nodes: bucketed by src, then each bucket sorted by [`out_order`].
    #[cold]
    fn of(edges: &[Edge], n: usize) -> Self {
        let edges = bucketed(edges, n, |e| e.src, out_order);
        let rows = ClassRows::of(&edges, n, |e| e.src);
        OutSide { edges, rows }
    }
}

/// `run` and `sorted`, both in [`in_order`], merged into `run` in place:
/// `run` grows by `sorted.len()` and is filled from the back, taking the
/// larger of the two remaining last edges each time.
fn merge_in(run: &mut Vec<Edge>, sorted: &[Edge]) {
    let (mut i, mut j) = (run.len(), sorted.len());
    run.extend_from_slice(sorted);
    while j > 0 {
        let slot = i + j - 1;
        if i > 0 && in_order(&run[i - 1]) > in_order(&sorted[j - 1]) {
            i -= 1;
            run[slot] = run[i];
        } else {
            j -= 1;
            run[slot] = sorted[j];
        }
    }
}

/// The canonical order of the incoming edge array ([`Pag::edges`]):
/// dst-major, kind-class within a node, then `(src, payload)`.
pub(crate) fn in_order(e: &Edge) -> (NodeId, u8, NodeId, u32) {
    let (class, detail) = edge_sort_key(e.kind);
    (e.dst, class, e.src, detail)
}

/// The order of the outgoing edge array: [`in_order`] with the ends
/// swapped.
fn out_order(e: &Edge) -> (NodeId, u8, NodeId, u32) {
    let (class, detail) = edge_sort_key(e.kind);
    (e.src, class, e.dst, detail)
}

/// Total order over edge kinds used for deterministic dedup. The leading
/// byte is the [`EdgeClass`] discriminant, so class grouping and dedup
/// order agree by construction.
pub(crate) fn edge_sort_key(kind: EdgeKind) -> (u8, u32) {
    match kind {
        EdgeKind::New => (0, 0),
        EdgeKind::AssignLocal => (1, 0),
        EdgeKind::AssignGlobal => (2, 0),
        EdgeKind::Load(f) => (3, f.raw()),
        EdgeKind::Store(f) => (4, f.raw()),
        EdgeKind::Param(i) => (5, i.raw()),
        EdgeKind::Ret(i) => (6, i.raw()),
    }
}

/// The frozen, immutable Pointer Assignment Graph.
#[derive(Clone, Debug)]
pub struct Pag {
    /// Node, type and method-name tables sit behind `Arc`s: a graph frozen
    /// from another's ids ([`Pag::with_edges`], [`Pag::apply_delta`])
    /// shares them with it.
    nodes: Arc<Vec<NodeInfo>>,
    /// Whether each node is a variable: the one byte of `nodes` the
    /// forward traversal reads per step. A slice: one load from the graph
    /// to the bytes.
    variables: Arc<[bool]>,
    /// All edges, sorted `(dst, class, src)` — this *is* the incoming-edge
    /// array, kind-major within each node's range.
    edges: Vec<Edge>,
    /// Where each node's classes lie in `edges` (see [`ClassRows`]), built
    /// by the first incoming read: the frontend's graph, which the cycle
    /// collapse reads through [`Pag::edges`] only, never holds one.
    in_rows: OnceLock<ClassRows>,
    /// The outgoing side, built by the first outgoing read: a graph no
    /// traversal walks forward — the frontend's, before its cycles are
    /// collapsed — never holds one.
    out: OnceLock<OutSide>,
    /// The `param` slices of `edges` by call site, built by the first
    /// lookup: a graph no traversal leaves a callee in never holds one.
    param_in: OnceLock<BySite>,
    /// The `ret` slices of the outgoing side by call site, as lazily.
    ret_out: OnceLock<BySite>,
    loads_by_field: Vec<Vec<(NodeId, NodeId)>>,
    stores_by_field: Vec<Vec<(NodeId, NodeId)>>,
    types: Arc<TypeTable>,
    method_names: Arc<Vec<String>>,
    call_sites: u32,
    /// See [`Pag::revision`].
    pub(crate) revision: u64,
}

/// What [`Pag::packed`] hands the frozen benchmark: no rows, no words.
#[doc(hidden)]
pub struct PackedAdj;

impl PackedAdj {
    /// Always 0: nothing is packed.
    pub fn packed_words(&self) -> usize {
        0
    }
}

impl Pag {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of call sites.
    #[inline]
    pub fn call_site_count(&self) -> usize {
        self.call_sites as usize
    }

    /// The applied-revision counter: 0 for a freshly frozen graph,
    /// incremented by every effective [`Pag::apply_delta`]. Cheap staleness
    /// check for caches keyed on a graph snapshot.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of methods.
    #[inline]
    pub fn method_count(&self) -> usize {
        self.method_names.len()
    }

    /// Metadata for node `n`.
    #[inline]
    pub fn node(&self, n: NodeId) -> &NodeInfo {
        &self.nodes[n.index()]
    }

    /// Kind of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// Whether node `n` is a variable: `kind(n).is_variable()`, read from
    /// a byte per node.
    #[inline]
    pub fn is_variable(&self, n: NodeId) -> bool {
        self.variables[n.index()]
    }

    /// Name of method `m`.
    pub fn method_name(&self, m: MethodId) -> &str {
        &self.method_names[m.index()]
    }

    /// The program's type table.
    #[inline]
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// All edges flowing **into** `n` (traversed by `PointsTo`).
    #[inline]
    pub fn incoming(&self, n: NodeId) -> &[Edge] {
        self.incoming_classes(n).all()
    }

    /// All edges flowing **out of** `n` (traversed by `FlowsTo`). A direct
    /// CSR slice over the src-sorted edge array — no per-call indirection
    /// once the graph's first outgoing read has built that array.
    #[inline]
    pub fn outgoing(&self, n: NodeId) -> &[Edge] {
        self.outgoing_classes(n).all()
    }

    /// The incoming edges of `n` whose kind belongs to `class`, as a direct
    /// sub-slice of [`Pag::incoming`] (edges are kind-major per node).
    #[inline]
    pub fn incoming_kind(&self, n: NodeId, class: EdgeClass) -> &[Edge] {
        self.incoming_classes(n).of(class)
    }

    /// [`Pag::incoming_kind`] of every class of `n`, from one read of its
    /// offsets.
    #[inline]
    pub fn incoming_classes(&self, n: NodeId) -> ClassSlices<'_> {
        classes(&self.edges, self.in_rows(), n)
    }

    /// The outgoing edges of `n` by class, each a direct sub-slice of
    /// [`Pag::outgoing`], from one read of its offsets.
    #[inline]
    pub fn outgoing_classes(&self, n: NodeId) -> ClassSlices<'_> {
        let out = self.out_side();
        classes(&out.edges, &out.rows, n)
    }

    /// The incoming class rows, built from [`Pag::edges`] on the first
    /// call.
    #[inline]
    fn in_rows(&self) -> &ClassRows {
        let n = self.nodes.len();
        self.in_rows
            .get_or_init(|| ClassRows::of(&self.edges, n, |e| e.dst))
    }

    /// The outgoing side, built from [`Pag::edges`] on the first call.
    #[inline]
    fn out_side(&self) -> &OutSide {
        self.out
            .get_or_init(|| OutSide::of(&self.edges, self.nodes.len()))
    }

    /// The `param` edges into `n` at call site `site`: the members of
    /// `incoming_kind(n, Param)` of that site, in its order, found by a
    /// binary search in `n`'s by-site index instead of a scan.
    #[inline]
    pub fn incoming_param_at(
        &self,
        n: NodeId,
        site: CallSiteId,
    ) -> impl Iterator<Item = Edge> + '_ {
        let kind = EdgeKind::Param(site);
        let edge = move |src| Edge { src, dst: n, kind };
        let index = self
            .param_in
            .get_or_init(|| self.site_index(EdgeClass::Param));
        index.at(n.index(), site.raw()).map(edge)
    }

    /// The `ret` edges out of `n` at call site `site`: the members of
    /// `outgoing_classes(n).of(Ret)` of that site, in its order. The first
    /// lookup builds the outgoing side if no read has yet.
    #[inline]
    pub fn outgoing_ret_at(&self, n: NodeId, site: CallSiteId) -> impl Iterator<Item = Edge> + '_ {
        let kind = EdgeKind::Ret(site);
        let edge = move |dst| Edge { src: n, dst, kind };
        let index = self.ret_out.get_or_init(|| self.site_index(EdgeClass::Ret));
        index.at(n.index(), site.raw()).map(edge)
    }

    /// The by-site index of `class` — `param` edges into nodes, or `ret`
    /// edges out of them: what a graph's first lookup stores.
    #[cold]
    fn site_index(&self, class: EdgeClass) -> BySite {
        match class {
            EdgeClass::Param => BySite::build(&self.edges, self.in_rows(), class, |e| e.src),
            EdgeClass::Ret => {
                let out = self.out_side();
                BySite::build(&out.edges, &out.rows, class, |e| e.dst)
            }
            _ => unreachable!("only call edges are indexed by site"),
        }
    }

    /// All store edges on field `f`, as `(base, rhs)` pairs
    /// (statement `base.f = rhs`).
    #[inline]
    pub fn stores_of(&self, f: FieldId) -> &[(NodeId, NodeId)] {
        &self.stores_by_field[f.index()]
    }

    /// All load edges on field `f`, as `(base, dst)` pairs
    /// (statement `dst = base.f`).
    #[inline]
    pub fn loads_of(&self, f: FieldId) -> &[(NodeId, NodeId)] {
        &self.loads_by_field[f.index()]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_usize)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The local variables of application code — the paper's query set
    /// ("queries ... are issued for all the local variables in its
    /// application code").
    pub fn application_locals(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| {
                let info = &self.nodes[n.index()];
                info.is_application && info.kind.is_local()
            })
            .collect()
    }

    /// Source-compatibility shim for the frozen `benchmark/` crate: the
    /// bit-packed adjacency went with the matrix engine (DESIGN.md §11).
    #[doc(hidden)]
    pub fn packed(&self) -> &PackedAdj {
        &PackedAdj
    }

    /// Whether `e` is an edge of the graph: a binary search in the
    /// canonical [`Pag::edges`] array.
    pub(crate) fn has_edge(&self, e: &Edge) -> bool {
        self.edges
            .binary_search_by_key(&in_order(e), in_order)
            .is_ok()
    }

    /// The graph over the same nodes, types, methods and call sites with
    /// exactly `edges` (any order, duplicates allowed), frozen as
    /// [`PagBuilder::freeze`] freezes: node ids are kept, so queries against
    /// `self` stay valid against the result. Its revision is 0, and its
    /// class rows, outgoing side and by-site indexes are left to their
    /// first reads.
    pub fn with_edges(&self, edges: &[Edge]) -> Pag {
        freeze_edges(
            Arc::clone(&self.nodes),
            edges.to_vec(),
            Arc::clone(&self.types),
            Arc::clone(&self.method_names),
            self.call_sites,
        )
    }

    /// The quotient graph under `remap`: node `v` becomes `remap[v]`, whose
    /// metadata is `nodes[remap[v]]`; every edge is carried over with its
    /// ends renamed, except `assign_l` self-loops (`x = x` says nothing),
    /// and edges that coincide are kept once. The type table, method names
    /// and call sites are shared with `self`.
    ///
    /// Renaming keeps the canonical order of every edge whose ends keep
    /// their relative order — with each cycle named by its smallest member,
    /// every edge but those of merged nodes. So the renamed edges that
    /// still follow the last one kept stay where they are, and only the
    /// displaced ones are sorted and merged back in.
    pub fn quotient(&self, nodes: Vec<NodeInfo>, remap: &[NodeId]) -> Pag {
        let mut edges: Vec<Edge> = Vec::with_capacity(self.edges.len());
        let mut displaced = Vec::new();
        for e in &self.edges {
            let (src, dst) = (remap[e.src.index()], remap[e.dst.index()]);
            if src == dst && e.kind == EdgeKind::AssignLocal {
                continue;
            }
            let e = Edge {
                src,
                dst,
                kind: e.kind,
            };
            match edges.last() {
                Some(last) if in_order(&e) < in_order(last) => displaced.push(e),
                _ => edges.push(e),
            }
        }
        displaced.sort_unstable_by_key(in_order);
        merge_in(&mut edges, &displaced);
        drop(displaced);
        edges.dedup();
        build_pag_tables(
            Arc::new(nodes),
            edges,
            Arc::clone(&self.types),
            Arc::clone(&self.method_names),
            self.call_sites,
        )
    }

    /// Looks up a node by name; linear scan, intended for tests and small
    /// examples only.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId::from_usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CallSiteId, TypeId};
    use crate::types::TypeInfo;
    use proptest::prelude::*;

    fn mini() -> (Pag, Vec<NodeId>) {
        let mut b = PagBuilder::new();
        let m = b.add_method("main");
        let t = b.types_mut().add_type(TypeInfo {
            name: "T".into(),
            is_ref: true,
            fields: Vec::new(),
            supertype: None,
        });
        let f = b.types_mut().add_field("f");
        let mk = |name: &str, kind: NodeKind| NodeInfo {
            kind,
            ty: t,
            name: name.into(),
            is_application: true,
        };
        let o = b.add_node(mk("o", NodeKind::Object { method: m }));
        let x = b.add_node(mk("x", NodeKind::Local { method: m }));
        let y = b.add_node(mk("y", NodeKind::Local { method: m }));
        let p = b.add_node(mk("p", NodeKind::Local { method: m }));
        b.add_edge(o, x, EdgeKind::New);
        b.add_edge(x, y, EdgeKind::AssignLocal);
        // Duplicate edge must be deduplicated.
        b.add_edge(x, y, EdgeKind::AssignLocal);
        b.add_edge(p, y, EdgeKind::Load(f));
        b.add_edge(p, x, EdgeKind::Store(f));
        (b.freeze(), vec![o, x, y, p])
    }

    #[test]
    fn dedup_and_counts() {
        let (g, _) = mini();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4); // one duplicate removed
    }

    #[test]
    fn incoming_outgoing() {
        let (g, ids) = mini();
        let (o, x, y, p) = (ids[0], ids[1], ids[2], ids[3]);
        let inc_x: Vec<_> = g.incoming(x).iter().map(|e| (e.src, e.kind)).collect();
        // x receives the allocation and the store x.f = p.
        assert_eq!(inc_x.len(), 2);
        assert!(inc_x.contains(&(o, EdgeKind::New)));
        assert!(inc_x
            .iter()
            .any(|&(s, k)| s == p && matches!(k, EdgeKind::Store(_))));
        let inc_y: Vec<_> = g.incoming(y).to_vec();
        assert_eq!(inc_y.len(), 2);
        assert!(inc_y
            .iter()
            .any(|e| e.src == x && e.kind == EdgeKind::AssignLocal));
        let out_p: Vec<_> = g.outgoing(p).iter().map(|e| e.kind).collect();
        assert_eq!(out_p.len(), 2);
        let out_o = g.outgoing(o);
        assert_eq!(out_o.len(), 1);
        assert_eq!(out_o[0].dst, x);
    }

    #[test]
    fn kind_slices_partition_the_range() {
        let (g, ids) = mini();
        let (o, x, y, p) = (ids[0], ids[1], ids[2], ids[3]);
        // x receives a new edge from o and a store from p; nothing else.
        assert_eq!(g.incoming_kind(x, EdgeClass::New).len(), 1);
        assert_eq!(g.incoming_kind(x, EdgeClass::New)[0].src, o);
        assert_eq!(g.incoming_kind(x, EdgeClass::Store).len(), 1);
        assert!(g.incoming_kind(x, EdgeClass::AssignLocal).is_empty());
        // y receives assign_l from x and load from p.
        assert_eq!(g.incoming_kind(y, EdgeClass::AssignLocal).len(), 1);
        assert_eq!(g.incoming_kind(y, EdgeClass::Load).len(), 1);
        // p's outgoing: one load, one store.
        assert_eq!(g.outgoing_classes(p).of(EdgeClass::Load).len(), 1);
        assert_eq!(g.outgoing_classes(p).of(EdgeClass::Store).len(), 1);
        assert!(g.outgoing_classes(p).of(EdgeClass::New).is_empty());
        // For every node the per-class slices concatenate to the full range.
        for n in g.node_ids() {
            let mut concat_in = 0;
            let mut concat_out = 0;
            for k in 0..EDGE_CLASSES {
                let class = match k {
                    0 => EdgeClass::New,
                    1 => EdgeClass::AssignLocal,
                    2 => EdgeClass::AssignGlobal,
                    3 => EdgeClass::Load,
                    4 => EdgeClass::Store,
                    5 => EdgeClass::Param,
                    6 => EdgeClass::Ret,
                    _ => unreachable!(),
                };
                for e in g.incoming_kind(n, class) {
                    assert_eq!(e.kind.class(), class);
                    assert_eq!(e.dst, n);
                }
                for e in g.outgoing_classes(n).of(class) {
                    assert_eq!(e.kind.class(), class);
                    assert_eq!(e.src, n);
                }
                concat_in += g.incoming_kind(n, class).len();
                concat_out += g.outgoing_classes(n).of(class).len();
            }
            assert_eq!(concat_in, g.incoming(n).len());
            assert_eq!(concat_out, g.outgoing(n).len());
        }
    }

    /// A builder made by `default()` is the one `new()` makes: its type
    /// table predeclares `arr`, so the first field it interns is not
    /// `FieldId::ARR`.
    #[test]
    fn default_builder_predeclares_arr() {
        for mut b in [PagBuilder::default(), PagBuilder::new()] {
            let f = b.types_mut().add_field("f");
            assert_ne!(f, FieldId::ARR);
            assert_eq!(b.types_mut().field_count(), 2, "`arr` and `f`");
        }
        assert_eq!(TypeTable::default().field_count(), 1);
    }

    #[test]
    fn field_indexes() {
        let (g, ids) = mini();
        let (x, y, p) = (ids[1], ids[2], ids[3]);
        let f = FieldId(1); // first interned after builtin ARR
        assert_eq!(g.loads_of(f), &[(p, y)]); // y = p.f
        assert_eq!(g.stores_of(f), &[(x, p)]); // x.f = p
        assert!(g.loads_of(FieldId::ARR).is_empty());
    }

    #[test]
    fn application_locals_excludes_objects() {
        let (g, _) = mini();
        let app = g.application_locals();
        assert_eq!(app.len(), 3); // x, y, p but not object o
    }

    #[test]
    fn lookup_by_name() {
        let (g, ids) = mini();
        assert_eq!(g.node_by_name("p"), Some(ids[3]));
        assert_eq!(g.node_by_name("zzz"), None);
    }

    #[test]
    fn call_site_allocation() {
        let mut b = PagBuilder::new();
        assert_eq!(b.fresh_call_site(), CallSiteId(0));
        assert_eq!(b.fresh_call_site(), CallSiteId(1));
        let g = b.freeze();
        assert_eq!(g.call_site_count(), 2);
    }

    /// The freeze before bucketing, kept as the reference: one comparison
    /// sort per edge array, offsets read off by binary search.
    fn reference_freeze(mut edges: Vec<Edge>, n: usize) -> [(Vec<Edge>, Vec<u32>); 2] {
        edges.sort_unstable_by_key(in_order);
        edges.dedup();
        let mut out_edges = edges.clone();
        out_edges.sort_unstable_by_key(out_order);
        let csr = |es: Vec<Edge>, end: fn(&Edge) -> NodeId| {
            let key = |e: &Edge| (end(e).index(), e.kind.class() as usize);
            let at = |v: usize, k: usize| es.partition_point(|e| key(e) < (v, k)) as u32;
            let kind = (0..=n * EDGE_CLASSES).map(|i| at(i / EDGE_CLASSES, i % EDGE_CLASSES));
            let kind = kind.collect();
            (es, kind)
        };
        [csr(edges, |e| e.dst), csr(out_edges, |e| e.src)]
    }

    /// The edge kind a random `(k, payload)` draw stands for.
    fn kind_of(k: u8, p: u32) -> EdgeKind {
        match k % 7 {
            0 => EdgeKind::New,
            1 => EdgeKind::AssignLocal,
            2 => EdgeKind::AssignGlobal,
            3 => EdgeKind::Load(FieldId(p)),
            4 => EdgeKind::Store(FieldId(p)),
            5 => EdgeKind::Param(CallSiteId(p)),
            _ => EdgeKind::Ret(CallSiteId(p)),
        }
    }

    /// A graph of `n` nodes (every third an object) over fields and call
    /// sites `0..4`, with `raw`'s edges.
    fn random_pag(n: usize, raw: &[(u32, u32, u8, u32)]) -> Pag {
        let mut b = PagBuilder::new();
        let m = b.add_method("m");
        for f in 1..4 {
            b.types_mut().add_field(format!("f{f}"));
        }
        for _ in 0..4 {
            b.fresh_call_site();
        }
        for v in 0..n {
            let kind = if v % 3 == 0 {
                NodeKind::Object { method: m }
            } else {
                NodeKind::Global
            };
            let name = format!("n{v}");
            b.add_node(NodeInfo {
                kind,
                ty: TypeId(0),
                name: name.into(),
                is_application: true,
            });
        }
        for &(s, d, k, p) in raw {
            b.add_edge(NodeId(s), NodeId(d), kind_of(k, p));
        }
        b.freeze()
    }

    /// What the solver's `param` / `ret` pops used to do: scan the node's
    /// whole class slice and keep the edges of one site.
    fn scanned(slice: &[Edge], site: u32) -> Vec<Edge> {
        let at = |e: &&Edge| e.kind.call_site() == Some(CallSiteId(site));
        slice.iter().filter(at).copied().collect()
    }

    /// Every node's by-site lookups, at every site and one past them,
    /// against the scan; and the variable table against the node table.
    fn by_site_is_the_scan(g: &Pag) -> Result<(), TestCaseError> {
        for v in g.node_ids() {
            prop_assert_eq!(g.is_variable(v), g.kind(v).is_variable());
            for site in 0..=g.call_site_count() as u32 {
                let param: Vec<Edge> = g.incoming_param_at(v, CallSiteId(site)).collect();
                let want = scanned(g.incoming_kind(v, EdgeClass::Param), site);
                prop_assert_eq!(param, want, "param into {:?} at {}", v, site);
                let ret: Vec<Edge> = g.outgoing_ret_at(v, CallSiteId(site)).collect();
                let want = scanned(g.outgoing_classes(v).of(EdgeClass::Ret), site);
                prop_assert_eq!(ret, want, "ret out of {:?} at {}", v, site);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random edge multisets over all seven kinds — duplicates and
        /// untouched nodes included — freeze to exactly the reference's
        /// edge arrays, offset tables and field indexes.
        #[test]
        fn bucketed_freeze_matches_sorting_freeze(
            (n, raw) in (1usize..40).prop_flat_map(|n| {
                let edge = (0..n as u32, 0..n as u32, 0u8..7, 0u32..4);
                (Just(n), proptest::collection::vec(edge, 0..160))
            }),
            dups in proptest::collection::vec(0usize..1000, 0..24),
        ) {
            let mut b = PagBuilder::new();
            for f in 1..4 {
                b.types_mut().add_field(format!("f{f}"));
            }
            for v in 0..n {
                let kind = NodeKind::Global;
                let name = format!("n{v}").into();
                b.add_node(NodeInfo { kind, ty: TypeId(0), name, is_application: true });
            }
            let mut edges: Vec<Edge> = raw.iter().map(|&(s, d, k, p)| {
                Edge { src: NodeId(s), dst: NodeId(d), kind: kind_of(k, p) }
            }).collect();
            for d in dups.iter().filter(|_| !raw.is_empty()) {
                edges.push(edges[d % raw.len()]);
            }
            for e in &edges {
                b.add_edge(e.src, e.dst, e.kind);
            }
            let g = b.freeze();
            prop_assert!(g.out.get().is_none(), "freeze builds no outgoing side");
            prop_assert!(g.in_rows.get().is_none(), "freeze builds no class rows");
            is_the_reference_freeze(&g, edges)?;
        }

        /// On every graph a traversal can meet — a fresh freeze, its
        /// quotient under a random remap of nodes, that quotient edited by
        /// a random delta (call edges put in and taken out), and the
        /// edited set frozen again from a shuffled list with duplicates —
        /// the by-site lookup of every node at every site yields exactly
        /// the edges the old scan accepted, in the same order. Each graph
        /// is the reference freeze of its edge set, table for table.
        #[test]
        fn by_site_lookup_is_the_scan_after_freeze_quotient_and_delta(
            (n, raw, merge, scramble, edits) in (2usize..30).prop_flat_map(|n| {
                let edge = (0..n as u32, 0..n as u32, 0u8..7, 0u32..4);
                let edit = (any::<bool>(), (0..n as u32, 0..n as u32, 4u8..7, 0u32..4));
                use proptest::collection::vec;
                let merge = vec(0..n as u32, n..n + 1);
                (Just(n), vec(edge, 0..120), merge, any::<bool>(), vec(edit, 0..24))
            }),
            swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..64),
            dups in proptest::collection::vec(0usize..1000, 0..24),
        ) {
            let g = random_pag(n, &raw);
            by_site_is_the_scan(&g)?;

            // Either node `v` becomes the smallest node drawn with it, as
            // a collapse names a cycle, or it becomes its draw: a remap
            // that keeps few edges in order, so most are merged back in.
            let mut remap: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            for (v, &to) in merge.iter().enumerate() {
                remap[v] = if scramble { NodeId(to) } else { remap[v].min(remap[to as usize]) };
            }
            let nodes: Vec<NodeInfo> = (0..n).map(|v| g.node(remap[v]).clone()).collect();
            let q = g.quotient(nodes, &remap);
            prop_assert!(q.out.get().is_none(), "quotient builds no outgoing side");
            prop_assert!(q.in_rows.get().is_none(), "quotient builds no class rows");
            let renamed = g.edges().iter().map(|e| Edge {
                src: remap[e.src.index()],
                dst: remap[e.dst.index()],
                kind: e.kind,
            });
            let renamed = renamed.filter(|e| e.src != e.dst || e.kind != EdgeKind::AssignLocal);
            is_the_reference_freeze(&q, renamed.collect())?;
            by_site_is_the_scan(&q)?;

            let mut d = crate::PagDelta::new();
            for &(add, (s, t, k, p)) in &edits {
                let kind = kind_of(k, p);
                if add {
                    d.add_edge(NodeId(s), NodeId(t), kind);
                } else {
                    d.remove_edge(NodeId(s), NodeId(t), kind);
                }
            }
            // Some existing call edges go too.
            for e in q.edges().iter().filter(|e| e.kind.call_site().is_some()).step_by(3) {
                d.remove_edge(e.src, e.dst, e.kind);
            }
            let (edited, effect) = q.apply_delta(&d);
            prop_assert!(effect.is_noop() || edited.out.get().is_none());
            prop_assert!(effect.is_noop() || edited.in_rows.get().is_none());
            let kept = q.edges().iter().filter(|e| !effect.removed_edges.contains(e));
            let want: Vec<Edge> = kept.chain(&effect.added_edges).copied().collect();
            is_the_reference_freeze(&edited, want.clone())?;
            by_site_is_the_scan(&edited)?;

            let mut messy = want;
            let len = messy.len();
            if len > 0 {
                for &(i, j) in &swaps {
                    messy.swap(i % len, j % len);
                }
                for d in &dups {
                    messy.push(messy[d % len]);
                }
            }
            let again = q.with_edges(&messy);
            prop_assert!(again.out.get().is_none(), "with_edges builds no outgoing side");
            prop_assert!(again.in_rows.get().is_none(), "with_edges builds no class rows");
            prop_assert_eq!(again.revision(), 0);
            is_the_reference_freeze(&again, messy)?;
            by_site_is_the_scan(&again)?;
        }
    }

    /// `g`'s node names against `want`, name for name.
    fn names_are(g: &Pag, want: &[String]) -> Result<(), TestCaseError> {
        prop_assert_eq!(g.node_count(), want.len());
        for (v, name) in g.node_ids().zip(want) {
            prop_assert_eq!(&g.node(v).name, name.as_str(), "{:?}", v);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A builder mixing written names (`add_named`) with names given
        /// to `add_node` — standalone, or read off another graph — freezes
        /// every name to the one it was built with, writes its own into one
        /// text, one after the other, that holds one reference per written
        /// name and no other, and keeps a foreign one on its graph's text.
        /// The quotient, `with_edges` and an effective delta read the same
        /// names.
        #[test]
        fn names_read_as_built_through_freeze_quotient_with_edges_and_delta(
            (n, draws, merge) in (1usize..30).prop_flat_map(|n| {
                use proptest::collection::vec;
                (Just(n), vec((0u8..3, 0u32..1000), n..n + 1), vec(0..n as u32, n..n + 1))
            }),
        ) {
            let mut foreign = PagBuilder::new();
            for v in 0..7 {
                foreign.add_named(NodeKind::Global, TypeId(0), format_args!("far{v}"), false);
            }
            let foreign = foreign.freeze();

            let mut b = PagBuilder::new();
            let mut want = Vec::new();
            for &(how, k) in &draws {
                // Every fifth written or standalone name is empty.
                let text = if k % 5 == 0 { String::new() } else { format!("v{k}@m") };
                let (kind, ty) = (NodeKind::Global, TypeId(0));
                match how {
                    0 => {
                        b.add_named(kind, ty, &text, true);
                        want.push(text);
                    }
                    1 => {
                        let name = text.clone().into();
                        b.add_node(NodeInfo { kind, ty, name, is_application: true });
                        want.push(text);
                    }
                    _ => {
                        let far = foreign.node(NodeId(k % 7)).clone();
                        want.push(far.name.to_string());
                        b.add_node(far);
                    }
                }
            }
            let g = b.freeze();
            names_are(&g, &want)?;
            let written: Vec<NodeId> = g.node_ids().filter(|v| draws[v.index()].0 == 0).collect();
            for &v in &written {
                prop_assert_eq!(g.node(v).name.text_holders(), written.len(), "one count per name");
            }
            let written = written.into_iter();
            let ends = written.map(|v| (g.node(v).name.as_ptr() as usize, g.node(v).name.len()));
            let ends: Vec<_> = ends.collect();
            for w in ends.windows(2) {
                prop_assert_eq!(w[0].0 + w[0].1, w[1].0, "written names follow each other");
            }
            for v in g.node_ids().filter(|v| draws[v.index()].0 == 2) {
                let far = foreign.node(NodeId(draws[v.index()].1 % 7));
                prop_assert_eq!(g.node(v).name.as_ptr(), far.name.as_ptr(), "a foreign text");
            }

            let remap: Vec<NodeId> = (0..n).map(|v| NodeId(merge[v].min(v as u32))).collect();
            let nodes = (0..n).map(|v| g.node(remap[v]).clone()).collect();
            let q = g.quotient(nodes, &remap);
            let want: Vec<String> = remap.iter().map(|r| want[r.index()].clone()).collect();
            names_are(&q, &want)?;
            let new = Edge { src: NodeId(0), dst: NodeId(0), kind: EdgeKind::New };
            let again = q.with_edges(&[new]);
            names_are(&again, &want)?;
            let mut d = crate::PagDelta::new();
            d.add_edge(NodeId(0), NodeId(0), EdgeKind::AssignGlobal);
            let (edited, effect) = again.apply_delta(&d);
            prop_assert!(!effect.is_noop());
            names_are(&edited, &want)?;
        }
    }

    /// `rows` read back as the flat offset table of [`reference_freeze`]:
    /// each node's class starts, then the edge array's length.
    fn table(rows: &ClassRows) -> Vec<u32> {
        let n = rows.node_count();
        let starts = (0..n).flat_map(|v| rows.bounds(v)[..EDGE_CLASSES].to_vec());
        starts
            .chain([u32::from_le_bytes(rows.rows[n].start)])
            .collect()
    }

    /// `g`'s tables — edge arrays, class rows and field indexes, the
    /// lazily built ones read through their accessors — against the
    /// reference freeze of `edges` over `g`'s nodes.
    fn is_the_reference_freeze(g: &Pag, edges: Vec<Edge>) -> Result<(), TestCaseError> {
        let [(ins, in_kind), (outs, out_kind)] = reference_freeze(edges, g.node_count());
        prop_assert_eq!(&g.edges, &ins);
        prop_assert_eq!(table(g.in_rows()), in_kind);
        let out = g.out_side();
        prop_assert_eq!(&out.edges, &outs);
        prop_assert_eq!(table(&out.rows), out_kind);
        for f in 0..g.types().field_count() as u32 {
            let of = |kind: EdgeKind| ins.iter().filter(move |e| e.kind == kind);
            let loads: Vec<_> = of(EdgeKind::Load(FieldId(f)))
                .map(|e| (e.src, e.dst))
                .collect();
            let stores: Vec<_> = of(EdgeKind::Store(FieldId(f)))
                .map(|e| (e.dst, e.src))
                .collect();
            prop_assert_eq!(g.loads_of(FieldId(f)), &loads[..]);
            prop_assert_eq!(g.stores_of(FieldId(f)), &stores[..]);
        }
        Ok(())
    }

    /// A fixed graph over 20 nodes with edges of every kind.
    fn fixed_edges() -> Vec<(u32, u32, u8, u32)> {
        (0..90u32)
            .map(|i| (i * 7 % 20, i * 11 % 20, (i % 7) as u8, i % 4))
            .collect()
    }

    /// Freeze, quotient, an edit of a parent that built both sides and
    /// `with_edges` all leave the incoming class rows and the outgoing
    /// side unbuilt; the first read of each builds it, it is a fresh
    /// freeze's, and neither side's read builds the other.
    #[test]
    fn freeze_and_quotient_leave_the_outgoing_side_to_the_first_read() {
        let (g, ids) = mini();
        assert!(g.out.get().is_none());
        assert!(g.in_rows.get().is_none());
        g.incoming(ids[1]);
        assert!(
            g.in_rows.get().is_some(),
            "the first incoming read builds it"
        );
        g.incoming_param_at(ids[1], CallSiteId(0)).count();
        assert!(g.out.get().is_none(), "incoming reads leave it unbuilt");
        let out_o = g.outgoing(ids[0]);
        assert_eq!(
            out_o,
            &[Edge {
                src: ids[0],
                dst: ids[1],
                kind: EdgeKind::New
            }]
        );
        assert!(g.out.get().is_some(), "the first outgoing read builds it");

        let raw = fixed_edges();
        let g = random_pag(20, &raw);
        assert!(g.in_rows.get().is_none());
        g.incoming(NodeId(0));
        let remap: Vec<NodeId> = (0..20).map(|v| NodeId(v / 2)).collect();
        let nodes = (0..10).map(|v| g.node(NodeId(v)).clone()).collect();
        let q = g.quotient(nodes, &remap);
        assert!(q.out.get().is_none());
        assert!(
            q.in_rows.get().is_none(),
            "a built parent table is not carried"
        );
        // A `ret` lookup reads the outgoing side too, and only that side.
        q.outgoing_ret_at(NodeId(0), CallSiteId(0)).count();
        assert!(q.out.get().is_some());
        assert!(q.in_rows.get().is_none(), "outgoing reads leave it unbuilt");

        let (added, removed) = ((3, 17, 6, 2), raw[5]);
        let mut d = crate::PagDelta::new();
        let edge = |(s, t, k, p): (u32, u32, u8, u32)| (NodeId(s), NodeId(t), kind_of(k, p));
        let (s, t, k) = edge(added);
        d.add_edge(s, t, k);
        let (s, t, k) = edge(removed);
        d.remove_edge(s, t, k);
        let kept = raw.iter().copied().filter(|&r| r != removed);
        let fresh = random_pag(20, &kept.chain([added]).collect::<Vec<_>>());
        g.outgoing(NodeId(0));
        let (edited, _) = g.apply_delta(&d);
        let rebuilt = g.with_edges(fresh.edges());
        let [(_, want_in), _] = reference_freeze(fresh.edges().to_vec(), 20);
        for h in [&edited, &rebuilt] {
            assert!(h.out.get().is_none(), "left to the first read");
            assert!(h.in_rows.get().is_none(), "left to the first read");
            assert_eq!(h.edges(), fresh.edges());
            for v in fresh.node_ids() {
                for k in 0..7 {
                    let class = kind_of(k, 0).class();
                    let want = fresh.outgoing_classes(v).of(class);
                    assert_eq!(h.outgoing_classes(v).of(class), want, "{v:?} {class:?}");
                }
                for site in 0..5 {
                    let ret = |g: &Pag| g.outgoing_ret_at(v, CallSiteId(site)).collect::<Vec<_>>();
                    assert_eq!(ret(h), ret(&fresh), "ret out of {v:?} at {site}");
                }
            }
            assert!(h.out.get().is_some());
            assert!(h.in_rows.get().is_none());
            for v in fresh.node_ids() {
                for k in 0..7 {
                    let class = kind_of(k, 0).class();
                    let want = fresh.incoming_classes(v).of(class);
                    assert_eq!(h.incoming_classes(v).of(class), want, "{v:?} {class:?}");
                }
                for site in 0..5 {
                    let param =
                        |g: &Pag| g.incoming_param_at(v, CallSiteId(site)).collect::<Vec<_>>();
                    assert_eq!(param(h), param(&fresh), "param into {v:?} at {site}");
                }
            }
            assert_eq!(h.in_rows.get().map(table).as_ref(), Some(&want_in), "the reference table");
        }
    }

    #[test]
    fn threads_racing_on_the_first_outgoing_read_see_one_side() {
        let g = random_pag(20, &fixed_edges());
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<&[Edge]>> = std::thread::scope(|s| {
            let read = || {
                start.wait();
                g.node_ids().map(|v| g.outgoing(v)).collect()
            };
            let threads: Vec<_> = (0..4).map(|_| s.spawn(read)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for slices in &seen[1..] {
            for (a, b) in slices.iter().zip(&seen[0]) {
                assert_eq!(a.as_ptr(), b.as_ptr(), "one built array");
                assert_eq!(a, b);
            }
        }
        let fresh = random_pag(20, &fixed_edges());
        for v in fresh.node_ids() {
            assert_eq!(seen[0][v.index()], fresh.outgoing(v));
        }
    }

    #[test]
    fn threads_racing_on_the_first_incoming_read_see_one_table() {
        let g = random_pag(20, &fixed_edges());
        let start = std::sync::Barrier::new(4);
        let seen: Vec<(&ClassRows, Vec<&[Edge]>)> = std::thread::scope(|s| {
            let read = || {
                start.wait();
                let slices = g.node_ids().map(|v| g.incoming(v)).collect();
                (g.in_rows(), slices)
            };
            let threads: Vec<_> = (0..4).map(|_| s.spawn(read)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (rows, slices) in &seen[1..] {
            assert!(std::ptr::eq(*rows, seen[0].0), "one built table");
            assert_eq!(slices, &seen[0].1);
        }
        let [(_, want), _] = reference_freeze(g.edges().to_vec(), 20);
        assert_eq!(table(g.in_rows()), want);
        let fresh = random_pag(20, &fixed_edges());
        for v in fresh.node_ids() {
            assert_eq!(seen[0].1[v.index()], fresh.incoming(v));
        }
    }

    /// Nodes with 255 edges or more on a side — 500 of five classes into
    /// one, 400 `param` edges of four sites into another, 400 `ret` edges
    /// out of a third, and exactly 255 — read their whole rows from the
    /// side table, and one with 254 reads its bytes. Both sides' rows are
    /// the reference freeze's tables, and every by-site lookup is the scan
    /// of its class slice.
    #[test]
    fn hub_rows_read_as_the_reference() {
        let mut raw = Vec::new();
        for s in 1..=100 {
            raw.extend((0..5).map(|k| (s, 0, k, s % 4)));
        }
        for s in 2..=101 {
            raw.extend((0..4).map(|site| (s, 1, 5, site)));
        }
        for d in 103..=202 {
            raw.extend((0..4).map(|site| (2, d, 6, site)));
        }
        raw.extend((5..259).map(|s| (s, 3, 1, 0)));
        raw.extend((5..260).map(|s| (s, 4, 1, 0)));
        let g = random_pag(300, &raw);
        let edges: Vec<Edge> = (raw.iter())
            .map(|&(s, d, k, p)| Edge { src: NodeId(s), dst: NodeId(d), kind: kind_of(k, p) })
            .collect();
        is_the_reference_freeze(&g, edges).unwrap();
        by_site_is_the_scan(&g).unwrap();

        let wide = |rows: &ClassRows| -> Vec<usize> {
            (0..rows.node_count()).filter(|&v| rows.rows[v].ends[0] == WIDE).collect()
        };
        assert_eq!(g.incoming(NodeId(3)).len(), 254);
        assert_eq!(g.incoming(NodeId(4)).len(), 255);
        assert_eq!(wide(g.in_rows()), [0, 1, 4]);
        assert_eq!(g.in_rows().wide.len(), 3);
        assert_eq!(g.outgoing(NodeId(2)).len(), 409);
        assert_eq!(wide(&g.out_side().rows), [2]);
        assert_eq!(g.out_side().rows.wide.len(), 1);
    }

    /// A row is 10 bytes, and a side's table holds one per node and one
    /// more, at its length; a graph with no wide node holds no side table.
    #[test]
    fn class_rows_are_ten_bytes_a_node() {
        assert_eq!(std::mem::size_of::<Row>(), 10);
        let g = random_pag(37, &fixed_edges());
        for rows in [g.in_rows(), &g.out_side().rows] {
            assert_eq!(rows.rows.capacity(), 38);
            assert_eq!(rows.wide.capacity(), 0);
        }
    }

    /// A frozen graph's node and method-name tables are exactly as long as
    /// their contents: the builder's growth slack does not outlive the
    /// freeze.
    #[test]
    fn frozen_tables_hold_no_growth_slack() {
        let mut b = PagBuilder::new();
        for m in 0..5 {
            b.add_method(format!("m{m}"));
        }
        assert!(b.method_names.capacity() > 5);
        let g = b.freeze();
        assert_eq!(g.method_names.capacity(), 5);
        let g = random_pag(37, &fixed_edges());
        assert_eq!(g.nodes.capacity(), 37, "a builder grows to 64");
    }

    /// The `param` / `ret` by-site indexes are sized from the class rows:
    /// their entry tables hold no growth slack either.
    #[test]
    fn by_site_indexes_hold_no_growth_slack() {
        let g = random_pag(37, &fixed_edges());
        for class in [EdgeClass::Param, EdgeClass::Ret] {
            let index = g.site_index(class);
            assert!(!index.entries.is_empty(), "{class:?}");
            assert_eq!(index.entries.capacity(), index.entries.len(), "{class:?}");
        }
    }

    #[test]
    fn type_table_passthrough() {
        let mut tt = TypeTable::new();
        tt.add_type(TypeInfo {
            name: "X".into(),
            is_ref: true,
            fields: Vec::new(),
            supertype: None,
        });
        let b = PagBuilder::with_types(tt);
        let g = b.freeze();
        assert_eq!(g.types().len(), 1);
        assert_eq!(g.types().get(TypeId(0)).name, "X");
    }
}
