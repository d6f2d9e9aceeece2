package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Algorithm 2 (GI-DS) and its (1+δ)-approximate extension (§6).
  *
  * The grid index supplies a lower bound per index cell for all candidate
  * regions bottom-left-located in it; cells are then searched in bound order
  * by one [[DSSearch]] object, whose incumbent starts as the empty region,
  * as in DS-Search, and is shared by every cell, until the next bound
  * reaches `d_opt/(1+δ)` (δ = 0 ⇒ exact, Algorithm 2 line 5).
  *
  * Orchestration note (DESIGN.md §2): the index is built on the driver from
  * one collect of the objects; the query is one collect of its rectangles,
  * and the per-cell searches run on the driver over per-cell buckets of them.
  * Searching each index cell on a full grid is what makes GI-DS slower than
  * plain DS-Search on F1 at n = 200k (ROADMAP item 9). The up-front bucket
  * table is not: it takes 37–63 ms of a 2.3–5.6 s call there.
  */
object GIDS {

  final case class Result(x: Double, y: Double, score: Double,
                          cellsSearched: Int, totalCells: Int, stats: SearchStats) {
    def ratioSearched: Double = cellsSearched.toDouble / totalCells
  }

  def solve(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
            target: Array[Double], index: GridIndex,
            params: SearchParams = SearchParams()): Result = {
    require(index.spec.aggs == spec.aggs,
      s"the index was built for aggregators ${index.spec.aggs.mkString(", ")}, " +
      s"not the query's ${spec.aggs.mkString(", ")}")
    val lr = Rects.local(objects, a, b, spec)
    require(index.n == lr.n,
      s"the index was built from other data: ${index.n} objects, not the query's ${lr.n}")
    val space = lr.edges.space
    require(index.maxX == space.x1 && index.maxY == space.y1,
      s"the index was built from other data: max (x, y) = (${index.maxX}, ${index.maxY}), " +
      s"not the query's (${space.x1}, ${space.y1})")
    val objective = MinDistance(spec, target)
    val ds = new DSSearch(lr, objective, params.delta)
    val all = Array.range(0, lr.n)

    // Boundary strips: candidate corners left of / below the index space
    // (their regions still overlap objects; the index cells cannot bound
    // them). Thin, searched unconditionally.
    val strips = Seq(
      Box(index.space.x0 - a, index.space.y0 - b, index.space.x0, index.space.y1),
      Box(index.space.x0, index.space.y0 - b, index.space.x1, index.space.y0))
    strips.foreach(ds.run(_, all, 0.0))

    // Bucket rectangles by the index cells they overlap (one pass).
    val grid = index.grid
    val buckets = Array.fill(index.sx * index.sy)(new mutable.ArrayBuffer[Int](8))
    var r = 0
    while (r < lr.n) {
      val (ciLo, ciHi) = grid.colRange(lr.xlo(r), lr.xhi(r))
      val (cjLo, cjHi) = grid.rowRange(lr.ylo(r), lr.yhi(r))
      var cj = cjLo
      while (cj <= cjHi) {
        var ci = ciLo
        while (ci <= ciHi) { buckets(cj * index.sx + ci) += r; ci += 1 }
        cj += 1
      }
      r += 1
    }

    // Lower bound every index cell `k = cj·sx + ci`, then search the cells in
    // bound order while a bound can still beat the incumbent (lines 2-7).
    // A cell that cannot beat the incumbent left by the strips is never
    // searched, so only the others are sorted.
    val bounds = Array.tabulate(index.sx * index.sy) { k =>
      val (lo, hi) = index.candidateBounds(k % index.sx, k / index.sx, a, b)
      objective.bound(lo, hi)
    }
    val order = Array.range(0, bounds.length).filter(bounds(_) < ds.threshold)
      .sortBy(bounds(_))(Ordering.Double.TotalOrdering)
    var searched = 0
    while (searched < order.length && bounds(order(searched)) < ds.threshold) {
      val k = order(searched)
      searched += 1
      ds.run(grid.cellBox(k % index.sx, k / index.sx), buckets(k).toArray, bounds(k))
    }
    Result(ds.bestX, ds.bestY, ds.bestScore, searched, bounds.length, ds.stats)
  }
}
