package repro.core

/** Ground-truth reference: the rectangle edges partition the plane into
  * O(n²) disjoint regions (Lemma 3); enumerating one interior point per
  * region (midpoints of consecutive distinct edge coordinates) and scoring
  * each by a direct scan is exact. O(n³) — tests and tiny instances only.
  *
  * [[evalPoint]], one O(n) scan, is also the representation F(r) of a
  * region ([[Agg.representation]], by Lemma 1).
  */
object BruteForce {

  /** Representation F(p) of a point: every rectangle covering it (open
    * containment) added as a full cover to a 1-slot [[CellStats]], read as
    * a clean cell.
    */
  def evalPoint(lr: LocalRects, spec: CompositeAggregator, px: Double, py: Double): Array[Double] = {
    val cs = new CellStats(spec, 1)
    var r = 0
    while (r < lr.n) {
      if (lr.xlo(r) < px && px < lr.xhi(r) && lr.ylo(r) < py && py < lr.yhi(r)) cs.add(0, lr, r, true, 1)
      r += 1
    }
    val out = new Array[Double](spec.dim)
    cs.exact(0, out)
    out
  }

  /** Candidate interior points on one axis: midpoints between consecutive
    * `sorted` distinct edge coordinates, plus `outside`, the empty region's
    * coordinate.
    */
  def candidates(sorted: Array[Double], outside: Double): Array[Double] =
    Array.tabulate(sorted.length - 1)(k => (sorted(k) + sorted(k + 1)) / 2) :+ outside

  final case class Best(x: Double, y: Double, score: Double, vec: Array[Double])

  def solve(lr: LocalRects, objective: MinDistance): Best = {
    val edges = lr.edges
    val xc = candidates(edges.xs, edges.outsideX)
    val yc = candidates(edges.ys, edges.outsideY)
    var best: Best = null
    for (px <- xc; py <- yc) {
      val vec = evalPoint(lr, objective.spec, px, py)
      val s = objective.score(vec)
      if (best == null || s < best.score) best = Best(px, py, s, vec)
    }
    best
  }
}
