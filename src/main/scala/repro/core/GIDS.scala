package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Algorithm 2 (GI-DS) and its (1+δ)-approximate extension (§6).
  *
  * The grid index supplies a lower bound per index cell for all candidate
  * regions bottom-left-located in it; cells are then searched best-first by
  * DS-Search, sharing one incumbent, until the heap's top bound reaches
  * `d_opt/(1+δ)` (δ = 0 ⇒ exact, Algorithm 2 line 5).
  *
  * Orchestration note (DESIGN.md §2): the index build and the ASP reduction
  * are distributed dataflows; the per-cell searches run on collected
  * rectangles (each index cell holds a tiny fraction of them) via per-cell
  * buckets, which is what makes GI-DS cheaper than plain DS-Search.
  */
object GIDS {

  final case class Result(x: Double, y: Double, score: Double,
                          cellsSearched: Int, totalCells: Int, stats: SearchStats) {
    def ratioSearched: Double = cellsSearched.toDouble / totalCells
    def region(a: Double, b: Double): Box = Box(x, y, x + a, y + b)
  }

  def solve(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
            target: Array[Double], index: GridIndex,
            params: SearchParams = SearchParams()): Result =
    run(objects, a, b, spec, MinDistance(spec, target), index, params)

  def run(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
          objective: Objective, index: GridIndex, params: SearchParams): Result = {
    require(index.spec.aggs == spec.aggs,
      s"the index was built for aggregators ${index.spec.aggs.mkString(", ")}, " +
      s"not the query's ${spec.aggs.mkString(", ")}")
    val q = PreparedQuery(objects, a, b, spec)
    require(index.n == q.n && index.maxX == q.space.x1 && index.maxY == q.space.y1,
      s"the index was built from other data: ${index.n} objects with max (x, y) = " +
      s"(${index.maxX}, ${index.maxY}), not the query's ${q.n} with (${q.space.x1}, ${q.space.y1})")
    val lr = q.local
    val state = new SearchState(objective, params.delta)
    state.offer(DSSearch.emptyScore(spec, objective), q.space.x1 + a, q.space.y1 + b)

    val ds = new DSSearch(spec, objective, params)

    // Boundary strips: candidate corners left of / below the index space
    // (their regions still overlap objects; the index cells cannot bound
    // them). Thin, searched unconditionally.
    val strips = Seq(
      Box(index.space.x0 - a, index.space.y0 - b, index.space.x0, index.space.y1),
      Box(index.space.x0, index.space.y0 - b, index.space.x1, index.space.y0))
    strips.foreach(s => ds.run(state, q, s, lr.overlapping(s), DSSearch.initialBound(objective)))

    // Bucket rectangles by the index cells they overlap (one pass).
    val igrid = Grid(index.space, index.sx, index.sy)
    val buckets = Array.fill(index.sx * index.sy)(new mutable.ArrayBuffer[Int](8))
    var r = 0
    while (r < lr.n) {
      val (ciLo, ciHi) = igrid.colRange(lr.xlo(r), lr.xhi(r))
      val (cjLo, cjHi) = igrid.rowRange(lr.ylo(r), lr.yhi(r))
      var cj = cjLo
      while (cj <= cjHi) {
        var ci = ciLo
        while (ci <= ciHi) { buckets(cj * index.sx + ci) += r; ci += 1 }
        cj += 1
      }
      r += 1
    }

    // Lower bound every index cell, then search best-first (lines 2-7).
    final case class CellEntry(bound: Double, ci: Int, cj: Int)
    val ord: Ordering[CellEntry] =
      if (objective.isMin) Ordering.by((e: CellEntry) => -e.bound)
      else Ordering.by((e: CellEntry) => e.bound)
    val heap = mutable.PriorityQueue.empty[CellEntry](ord)
    var cj = 0
    while (cj < index.sy) {
      var ci = 0
      while (ci < index.sx) {
        val (lo, hi) = index.candidateBounds(ci, cj, a, b)
        heap.enqueue(CellEntry(objective.bound(lo, hi), ci, cj))
        ci += 1
      }
      cj += 1
    }

    var searched = 0
    while (heap.nonEmpty && objective.better(heap.head.bound, state.threshold)) {
      val e = heap.dequeue()
      searched += 1
      ds.run(state, q, index.cellBox(e.ci, e.cj),
             buckets(e.cj * index.sx + e.ci).toArray, e.bound)
    }
    Result(state.bestX, state.bestY, state.bestScore, searched, index.sx * index.sy, state.stats)
  }
}
