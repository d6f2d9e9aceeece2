package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Base (§7.1): the O(n²) sweep-line baseline adapted from [11, 21].
  *
  * A vertical sweep visits the slabs between consecutive distinct x-edge
  * coordinates, maintaining the set of active rectangles incrementally; in
  * each slab a y-sweep over the active rectangles' edges maintains the
  * aggregate representation incrementally and scores every elementary
  * interval. Driver-side and sequential, as in the paper (their baseline is
  * a single-threaded C++ sweep); DS-Search is the distributed contribution.
  */
object SweepBase {

  final case class Result(x: Double, y: Double, score: Double, intervals: Long)

  /** The sweep over a query's collected rectangles. `spec` repeats
    * `objective.spec`; the signature stays because perfbench's traced run
    * calls it.
    */
  def solve(lr: LocalRects, spec: CompositeAggregator, objective: MinDistance): Result = {
    var bestScore = objective.emptyScore
    var bx = (if (lr.n > 0) lr.xhi.max else 0.0) + 1.0
    var by = (if (lr.n > 0) lr.yhi.max else 0.0) + 1.0
    var intervals = 0L
    if (lr.n == 0) return Result(bx, by, bestScore, 0)

    val xs = (lr.xlo ++ lr.xhi).distinct.sorted
    val byLo = Array.range(0, lr.n).sortBy(lr.xlo)
    val byHi = Array.range(0, lr.n).sortBy(lr.xhi)
    val active = mutable.LinkedHashSet.empty[Int]
    val vec = new Array[Double](spec.dim)
    var pLo = 0; var pHi = 0

    var k = 0
    while (k < xs.length - 1) {
      val x = xs(k)
      while (pHi < lr.n && lr.xhi(byHi(pHi)) <= x) { active.remove(byHi(pHi)); pHi += 1 }
      while (pLo < lr.n && lr.xlo(byLo(pLo)) <= x) { active.add(byLo(pLo)); pLo += 1 }
      if (active.nonEmpty) {
        val px = (x + xs(k + 1)) / 2
        // y-sweep inside the slab
        val acts = active.toArray
        val events = new Array[(Double, Int, Int)](acts.length * 2) // (y, kind 0=open 1=close, rect)
        var i = 0
        while (i < acts.length) {
          events(2 * i) = (lr.ylo(acts(i)), 0, acts(i))
          events(2 * i + 1) = (lr.yhi(acts(i)), 1, acts(i))
          i += 1
        }
        java.util.Arrays.sort(events, Ordering.by((e: (Double, Int, Int)) => (e._1, e._2)))
        val run = new CellStats(spec, 1) // the active set's full covers at y
        i = 0
        while (i < events.length) {
          val y = events(i)._1
          while (i < events.length && events(i)._1 == y) {
            val (_, kind, r) = events(i)
            run.add(0, lr, r, true, if (kind == 0) 1 else -1)
            i += 1
          }
          if (i < events.length) {
            intervals += 1
            run.exact(0, vec)
            val s = objective.score(vec)
            if (s < bestScore) {
              bestScore = s; bx = px; by = (y + events(i)._1) / 2
            }
          }
        }
      }
      k += 1
    }
    Result(bx, by, bestScore, intervals)
  }

  /** End-to-end ASRS baseline over a DataFrame of objects. */
  def solveASRS(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                target: Array[Double]): Result = {
    solve(PreparedQuery(objects, a, b, spec).local, spec, MinDistance(spec, target))
  }
}
