//! Criterion bench: terrain layout, meshing and SVG serialization — the `tv`
//! column of Table II — plus the simplification ablation (how much the render
//! budget of Section II-E buys).

use bench::datasets::DatasetKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use measures::core_numbers;
use scalarfield::{build_super_tree, simplify_super_tree, vertex_scalar_tree, VertexScalarGraph};
use terrain::{
    build_terrain_mesh, highest_peaks, layout_super_tree, peaks_at_alpha, Exporter, LayoutConfig,
    MeshConfig, RenderScene, Svg,
};

fn bench_terrain_rendering(c: &mut Criterion) {
    let dataset = DatasetKind::GrQc.generate(0.5);
    let graph = dataset.graph;
    let cores = core_numbers(&graph);
    let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
    let sg = VertexScalarGraph::new(&graph, &scalar).unwrap();
    let tree = build_super_tree(&vertex_scalar_tree(&sg));

    let mut group = c.benchmark_group("terrain_rendering");
    group.bench_function("layout_mesh_svg", |b| {
        b.iter(|| {
            let layout = layout_super_tree(&tree, &LayoutConfig::default());
            let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
            let scene = RenderScene::new(&tree, &layout, &mesh);
            Svg::new(900.0, 700.0).export_string(&scene).unwrap().len()
        })
    });

    // Peak queries: the subtree-heavy interactive stage (highest peaks plus a
    // full α sweep), which the arena turns into contiguous range scans.
    let layout = layout_super_tree(&tree, &LayoutConfig::default());
    let mut levels: Vec<f64> = scalar.clone();
    levels.sort_by(f64::total_cmp);
    levels.dedup();
    group.bench_function("peak_queries", |b| {
        b.iter(|| {
            let mut touched = highest_peaks(&tree, &layout, 10).len();
            for &alpha in &levels {
                touched += peaks_at_alpha(&tree, &layout, alpha).len();
            }
            touched
        })
    });

    // Simplification ablation: rendering cost after discretizing to N levels
    // (a budget of the whole tree, so only snapping shrinks it).
    for levels in [64usize, 16, 4] {
        let simplified = simplify_super_tree(&tree, levels, tree.node_count()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("simplified_levels", levels),
            &simplified,
            |b, simplified| {
                b.iter(|| {
                    let layout = layout_super_tree(simplified, &LayoutConfig::default());
                    let mesh = build_terrain_mesh(simplified, &layout, &MeshConfig::default());
                    let scene = RenderScene::new(simplified, &layout, &mesh);
                    Svg::new(900.0, 700.0).export_string(&scene).unwrap().len()
                })
            },
        );
    }
    group.finish();
}

fn bench_unsimplified_scale(c: &mut Criterion) {
    // Allocation-churn spotlight: layout and meshing of a large super tree
    // that is *not* simplified down to the render budget, so per-node
    // temporaries dominate the cost. This is the tree shape the `10k` rung of
    // the scale ladder hits (see PERFORMANCE.md) — small enough to fit under
    // the simplification budget, large enough that the per-node work shows.
    let graph = ugraph::generators::rmat(13, 100_000, 42);
    let scores = measures::pagerank(&graph, &measures::PageRankConfig::default());
    let sg = VertexScalarGraph::new(&graph, &scores).unwrap();
    let tree = build_super_tree(&vertex_scalar_tree(&sg));

    let mut group = c.benchmark_group("terrain_unsimplified");
    group.bench_function("layout", |b| {
        b.iter(|| layout_super_tree(&tree, &LayoutConfig::default()).rects.len())
    });
    let layout = layout_super_tree(&tree, &LayoutConfig::default());
    group.bench_function("mesh", |b| {
        b.iter(|| build_terrain_mesh(&tree, &layout, &MeshConfig::default()).triangle_count())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_terrain_rendering, bench_unsimplified_scale
}
criterion_main!(benches);
