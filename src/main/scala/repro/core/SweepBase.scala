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
  * a single-threaded C++ sweep), like every solver here.
  */
object SweepBase {

  final case class Result(x: Double, y: Double, score: Double, intervals: Long)

  /** The sweep over a query's collected rectangles, on their
    * [[Edges.sweepX]]. `spec` repeats `objective.spec`; the signature stays
    * because perfbench's traced run calls it.
    */
  def solve(lr: LocalRects, spec: CompositeAggregator, objective: MinDistance): Result = {
    val edges = lr.edges
    var bestScore = objective.emptyScore
    var bx = edges.outsideX; var by = edges.outsideY
    var intervals = 0L
    val active = mutable.LinkedHashSet.empty[Int]
    val vec = new Array[Double](spec.dim)

    edges.sweepX(active.remove(_), active.add(_)) { k =>
      if (active.nonEmpty) {
        val px = (edges.xs(k) + edges.xs(k + 1)) / 2
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
    }
    Result(bx, by, bestScore, intervals)
  }

  /** End-to-end ASRS baseline over a DataFrame of objects. */
  def solveASRS(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                target: Array[Double]): Result = {
    solve(Rects.local(objects, a, b, spec), spec, MinDistance(spec, target))
  }
}
