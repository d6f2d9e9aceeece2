package repro.core

import org.apache.spark.sql.DataFrame

/** Optimal Enclosure (OE) — the O(n log n) state-of-the-art MaxRS sweep the
  * paper benchmarks DS-Search against (§7.5; Nandy & Bhattacharya [21]).
  *
  * Sweep the distinct x-edge coordinates; a lazy range-add segment tree over
  * the compressed y-edge intervals maintains, for the current slab, how many
  * rectangles cover each elementary y-interval; the global tree max after
  * each slab update is the best count with a bottom-left corner in the slab.
  */
object MaxRSOE {

  final case class Result(x: Double, y: Double, count: Long)

  /** Lazy segment tree: range add, global (max, argmax-leaf). */
  private final class SegTree(m: Int) {
    private val size = math.max(1, m)
    private val mx   = new Array[Long](4 * size)
    private val mxAt = new Array[Int](4 * size)
    private val lz   = new Array[Long](4 * size)
    build(1, 0, size - 1)

    private def build(node: Int, lo: Int, hi: Int): Unit = {
      mxAt(node) = lo
      if (lo != hi) { val mid = (lo + hi) / 2; build(2 * node, lo, mid); build(2 * node + 1, mid + 1, hi) }
    }

    def add(l: Int, r: Int, v: Long): Unit = if (l <= r) add(1, 0, size - 1, l, r, v)

    private def add(node: Int, lo: Int, hi: Int, l: Int, r: Int, v: Long): Unit = {
      if (r < lo || hi < l) return
      if (l <= lo && hi <= r) { mx(node) += v; lz(node) += v; return }
      val mid = (lo + hi) / 2
      add(2 * node, lo, mid, l, r, v)
      add(2 * node + 1, mid + 1, hi, l, r, v)
      if (mx(2 * node) >= mx(2 * node + 1)) { mx(node) = mx(2 * node) + lz(node); mxAt(node) = mxAt(2 * node) }
      else { mx(node) = mx(2 * node + 1) + lz(node); mxAt(node) = mxAt(2 * node + 1) }
    }

    def max: Long = mx(1)
    def argmax: Int = mxAt(1)
  }

  def solve(lr: LocalRects): Result = solveWeighted(lr, null)

  /** Weighted MaxRS: maximize the total weight of enclosed objects (used to
    * derive the paper's query constants T6/T7 and v_max in §7.1 — "the
    * maximum number a region can have"). `weights == null` ⇒ all ones.
    */
  def solveWeighted(lr: LocalRects, weights: Array[Long]): Result = {
    def w(r: Int): Long = if (weights == null) 1L else weights(r)
    val edges = lr.edges
    val (xs, ys) = (edges.xs, edges.ys)
    val tree = new SegTree(ys.length - 1) // elementary y-intervals
    def add(r: Int, v: Long): Unit =
      tree.add(edges.yIndex(lr.ylo(r)), edges.yIndex(lr.yhi(r)) - 1, v)
    var best = 0L; var bx = edges.outsideX; var by = edges.outsideY

    edges.sweepX(r => add(r, -w(r)), r => add(r, w(r))) { k =>
      if (tree.max > best) {
        best = tree.max
        bx = (xs(k) + xs(k + 1)) / 2
        val t = tree.argmax
        by = (ys(t) + ys(t + 1)) / 2
      }
    }
    Result(bx, by, best)
  }

  /** End-to-end MaxRS baseline over a DataFrame of objects. */
  def solveMaxRS(objects: DataFrame, a: Double, b: Double): Result =
    solve(Rects.maxRS(objects, a, b))
}
