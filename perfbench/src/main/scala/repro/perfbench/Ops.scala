package repro.perfbench

import repro.core._
import scala.collection.mutable

/** What one solver call returned, reduced to what the checks and metrics need. */
final case class Outcome(score: Double, stats: Option[SearchStats],
                         cellsSearched: Int = 0, totalCells: Int = 0)

/** One executed operation: a solver call on a query, its wall time, its
  * outcome or error, and whether it passed the checks.
  */
final class Op(val solver: Solver, val query: Query, val ms: Double,
               val outcome: Option[Outcome], error: Option[String]) {
  private var problem: Option[String] = error
  def fail(why: String): Unit = if (problem.isEmpty) problem = Some(why)
  def ok: Boolean = problem.isEmpty
  def why: String = problem.getOrElse("")
  def score: Double = outcome.map(_.score).getOrElse(Double.NaN)
  /** d_app / d_opt of an app-GIDS op (1 when d_opt = 0 and d_app = 0). */
  var quality: Double = Double.NaN
}

object Ops {
  import Solver._

  /** Call `solver` on `query` through the program's public entry points. */
  def call(solver: Solver, q: Query): Outcome = {
    val (d, a) = (q.data, q.a)
    solver match {
      case DS =>
        val r = DSSearch.solveASRS(d, a, a, q.spec, q.target)
        Outcome(r.score, Some(r.stats))
      case GIDS | App =>
        val params = if (solver == App) SearchParams(delta = AppDelta) else SearchParams()
        val r = repro.core.GIDS.solve(d, a, a, q.spec, q.target, q.index, params)
        Outcome(r.score, Some(r.stats), r.cellsSearched, r.totalCells)
      case Base  => Outcome(SweepBase.solveASRS(d, a, a, q.spec, q.target).score, None)
      case MaxDS =>
        val r = DSSearch.solveMaxRS(d, a, a)
        Outcome(r.score, Some(r.stats))
      case OE    => Outcome(MaxRSOE.solveMaxRS(d, a, a).count.toDouble, None)
    }
  }

  /** Time one call; a throw becomes a failed op. `around` wraps the call
    * (the traced run counts Spark jobs through it).
    */
  def timed(solver: Solver, q: Query,
            around: (() => Outcome) => Outcome = f => f()): Op = {
    val t0 = System.nanoTime()
    val (out, err) =
      try (Some(around(() => call(solver, q))), None)
      catch { case e: Exception => (None, Some(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")) }
    new Op(solver, q, (System.nanoTime() - t0) / 1e6, out, err)
  }

  /** Call every solver of `q` once, in order, and check each answer against
    * the query's reference, which the first visit to `q` fixes.
    */
  def visit(q: Query, refs: mutable.Map[Query, Option[Double]]): Seq[Op] = {
    val ops = q.solvers.map(s => timed(s, q))
    val ref = refs.getOrElseUpdate(q, reference(q, ops))
    ops.foreach(check(_, ref))
    ops
  }

  private def close(x: Double, ref: Double): Boolean =
    math.abs(x - ref) <= 1e-9 * math.max(1.0, math.abs(ref))

  /** The answer every op of `q` is checked against: the OE count for
    * MaxRS; for ASRS Base's distance, else any exact op's.
    */
  def reference(q: Query, ops: Seq[Op]): Option[Double] = {
    def answered(s: Solver) = ops.find(o => o.solver == s && o.ok).map(_.score)
    if (q.isMaxRS) answered(OE)
    else answered(Base).orElse(
      ops.find(o => o.solver != App && o.ok).map(_.score))
  }

  /** The per-op checks: the call returned, its search was not truncated,
    * an exact solver matches the reference within 1e-9·max(1, |d|), app-GIDS
    * lies in [d_opt, (1+δ)·d_opt], DS-MaxRS finds the OE count.
    */
  def check(o: Op, ref: Option[Double]): Unit = {
    if (o.outcome.exists(_.stats.exists(_.truncated))) o.fail("search truncated")
    if (ref.isEmpty) o.fail("no reference answer")
    else if (o.ok) {
      val d = ref.get
      val tol = 1e-9 * math.max(1.0, math.abs(d))
      o.solver match {
        case MaxDS => if (o.score != d) o.fail(s"count ${o.score} != OE count $d")
        case App =>
          if (o.score < d - tol || o.score > (1 + AppDelta) * d + tol)
            o.fail(s"d_app=${o.score} outside [$d, ${(1 + AppDelta) * d}]")
          o.quality = if (close(d, 0.0)) 1.0 else o.score / d
        case _ => if (!close(o.score, d)) o.fail(s"d=${o.score} but reference $d")
      }
    }
    if (!o.ok) Console.err.println(s"[perfbench] FAILED ${o.solver.key} on ${o.query.id}: ${o.why}")
  }
}
