package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import scala.collection.mutable

/** Knobs of Algorithm 1. `ncol×nrow` is the discretization grid (paper §7.2
  * finds 30×30 best). Hybrid rule (DESIGN.md §2): a popped space is searched
  * on the driver (its subtree filtered from the query's collected rectangles)
  * when it holds at most `localThreshold` rectangles or its depth reaches
  * `sparkRootLevels`; above both, its statistics come from the distributed
  * groupBy. The default distributes the root scan — the O(n) part — and
  * recurses locally on the pruned sub-spaces, which hold a tiny fraction of
  * n. `delta` is the (1+δ) approximation slack (§6, 0 = exact); `maxSpaces`
  * is a runaway safeguard.
  */
final case class SearchParams(
    ncol: Int = 30, nrow: Int = 30,
    localThreshold: Long = 4000,
    sparkRootLevels: Int = 1,
    delta: Double = 0.0,
    maxSpaces: Int = 2_000_000)

final class SearchStats {
  var sparkDiscretizations = 0
  var localDiscretizations = 0
  var spacesProcessed = 0
  var cellsEvaluated = 0L
  var truncated = false // maxSpaces safeguard fired (never in a healthy run)

  override def toString =
    s"spaces=$spacesProcessed sparkJobs=$sparkDiscretizations local=$localDiscretizations cells=$cellsEvaluated"
}

/** Mutable incumbent shared across DS-Search invocations (GI-DS reuses one
  * state over many index cells so pruning compounds, Algorithm 2).
  */
final class SearchState(val objective: Objective, val delta: Double) {
  var bestScore: Double = objective.worst
  var bestX: Double = Double.NaN
  var bestY: Double = Double.NaN
  val stats = new SearchStats

  /** Bounds must beat this to survive (d_opt/(1+δ) for distances, §6). */
  def threshold: Double = objective.threshold(bestScore, delta)

  def offer(score: Double, x: Double, y: Double): Unit =
    if (objective.better(score, bestScore)) { bestScore = score; bestX = x; bestY = y }
}

/** Algorithm 1, DS-Search: best-first loop over spaces kept in a heap,
  * discretize each popped space, harvest clean cells, prune dirty cells by
  * bound, split survivors (Function Split) unless the drop condition
  * (Def. 8) holds.
  */
final class DSSearch(
    spec: CompositeAggregator,
    objective: Objective,
    params: SearchParams = SearchParams()) {

  /** A space to search: `idxs` are the rectangles of the query's snapshot it
    * is filtered from; `local` marks a subtree already on the driver.
    */
  private final case class Entry(bound: Double, space: Box, idxs: Array[Int],
                                 depth: Int, local: Boolean)

  private val entryOrd: Ordering[Entry] =
    if (objective.isMin) Ordering.by((e: Entry) => -e.bound) else Ordering.by((e: Entry) => e.bound)

  /** Search the query's whole space under the hybrid rule, updating `state`. */
  def run(state: SearchState, q: PreparedQuery): Unit =
    loop(state, q, Entry(initialBound, q.space, Array.range(0, q.n), 0, local = false))

  /** Search `space` on the driver only (`idxs` of `q.local` are the
    * candidates overlapping it) — used by GI-DS per index cell.
    */
  def runLocal(state: SearchState, space: Box, q: PreparedQuery,
               idxs: Array[Int], bound: Double): Unit =
    loop(state, q, Entry(bound, space, idxs, 0, local = true))

  private def initialBound: Double = if (objective.isMin) 0.0 else Double.PositiveInfinity

  private def loop(state: SearchState, q: PreparedQuery, init: Entry): Unit = {
    val lr = q.local
    val (dX, dY) = q.accuracy
    val heap = mutable.PriorityQueue(init)(entryOrd)
    while (heap.nonEmpty && objective.better(heap.head.bound, state.threshold)) {
      if (state.stats.spacesProcessed >= params.maxSpaces) {
        state.stats.truncated = true
        Console.err.println(s"[DSSearch] maxSpaces=${params.maxSpaces} hit — result may be approximate")
        heap.clear()
      } else {
        val e = heap.dequeue()
        state.stats.spacesProcessed += 1
        if (e.space.width > 0 && e.space.height > 0) {
          val grid = Grid(e.space, params.ncol, params.nrow)
          val here = filterIdxs(lr, e.idxs, e.space)
          val goLocal = e.local || e.depth >= params.sparkRootLevels ||
                        here.length <= params.localThreshold
          val cells =
            if (goLocal) {
              state.stats.localDiscretizations += 1
              Discretize.local(lr, here, grid, spec)
            } else {
              state.stats.sparkDiscretizations += 1
              Discretize.spark(q.rects, grid, spec)
            }
          val dirty = harvest(grid, cells, state)
          val drop = 2 * grid.cw < dX && 2 * grid.ch < dY
          if (!drop && dirty.nonEmpty) {
            // Below a distributed space, each child filters the whole snapshot.
            val childIdxs = if (goLocal) here else e.idxs
            val children = SplitHeuristic.split(dirty, objective)
              .flatMap(SplitHeuristic.ensureProgress(_, e.space))
            children.foreach { c =>
              if (objective.better(c.bound, state.threshold))
                heap.enqueue(Entry(c.bound, c.mbr, childIdxs, e.depth + 1, goLocal))
            }
          }
        }
      }
    }
  }

  /** Evaluate every cell of the grid: clean cells refine the incumbent, dirty
    * cells surviving the bound check are returned for splitting.
    */
  private def harvest(grid: Grid, cells: Array[CellRaw],
                      state: SearchState): IndexedSeq[SplitHeuristic.DirtyCell] = {
    val present = new Array[CellRaw](grid.cells)
    cells.foreach(c => present(grid.flat(c.ci, c.cj)) = c)
    val dirty = IndexedSeq.newBuilder[SplitHeuristic.DirtyCell]
    var j = 0
    while (j < grid.nrow) {
      var i = 0
      while (i < grid.ncol) {
        state.stats.cellsEvaluated += 1
        val raw = present(grid.flat(i, j))
        val box = grid.cellBox(i, j)
        if (raw == null || !raw.isDirty) {
          val stats = if (raw == null) CellStats.empty(spec, i, j).stats else raw.stats
          state.offer(objective.score(CellStats.exactVec(spec, stats)), box.centerX, box.centerY)
        } else {
          val (lo, hi) = CellStats.boundVecs(spec, raw.stats)
          val b = objective.bound(lo, hi)
          if (objective.better(b, state.threshold))
            dirty += SplitHeuristic.DirtyCell(box, b)
        }
        i += 1
      }
      j += 1
    }
    dirty.result()
  }

  private def filterIdxs(lr: LocalRects, idxs: Array[Int], space: Box): Array[Int] =
    idxs.filter(i => lr.xlo(i) < space.x1 && space.x0 < lr.xhi(i) &&
                     lr.ylo(i) < space.y1 && space.y0 < lr.yhi(i))
}

object DSSearch {

  /** Answer to an ASRS/MaxRS query: the candidate point (bottom-left corner
    * of the returned region) and its score, plus search statistics.
    */
  final case class Result(x: Double, y: Double, score: Double, stats: SearchStats) {
    def region(a: Double, b: Double): Box = Box(x, y, x + a, y + b)
  }

  /** End-to-end ASRS solve (Algorithm 1): reduce, compute accuracies, seed
    * the incumbent with the empty region (a point outside every rectangle —
    * the optimum may well be an object-free region), then search.
    */
  def solveASRS(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                target: Array[Double], params: SearchParams = SearchParams()): Result =
    solve(objects, a, b, spec, MinDistance(spec, target), params)

  /** MaxRS solve (§7.5): count objective over a constant-1 sum aggregator. */
  def solveMaxRS(objects: DataFrame, a: Double, b: Double,
                 params: SearchParams = SearchParams()): Result = {
    val spec = CompositeAggregator.uniform(SumAgg("__one"))
    solve(objects.withColumn("__one", lit(1.0)), a, b, spec, MaxCount(), params)
  }

  def solve(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
            objective: Objective, params: SearchParams = SearchParams()): Result = {
    val q = PreparedQuery(objects, a, b, spec)
    val state = new SearchState(objective, params.delta)
    if (q.n == 0) return Result(0, 0, emptyScore(spec, objective), state.stats)

    // Incumbent: the empty region, anchored strictly outside every rectangle.
    state.offer(emptyScore(spec, objective), q.space.x1 + a, q.space.y1 + b)

    // Only the driver path seeds the incumbent: seeding the distributed path
    // as well would change its search.
    if (q.n <= params.localThreshold) seedIncumbent(q.local, spec, objective, state)
    new DSSearch(spec, objective, params).run(state, q)
    Result(state.bestX, state.bestY, state.bestScore, state.stats)
  }

  def emptyScore(spec: CompositeAggregator, objective: Objective): Double =
    objective.score(CellStats.exactVec(spec, CellStats.empty(spec, 0, 0).stats))

  /** Pre-seed the incumbent by scoring a deterministic sample of achievable
    * candidate points (rectangle centers). Sound for any objective — each
    * offer is a real point's score — and vital for MaxCount, where the
    * search otherwise starts with best = 0 and no pruning leverage until
    * clean cells appear deep in the recursion.
    */
  private def seedIncumbent(lr: LocalRects, spec: CompositeAggregator,
                            objective: Objective, state: SearchState): Unit = {
    if (lr.n == 0) return
    val k = math.max(16, math.min(512, (2e7 / lr.n).toInt))
    val step = math.max(1, lr.n / k)
    var i = 0
    while (i < lr.n) {
      val px = (lr.xlo(i) + lr.xhi(i)) / 2
      val py = (lr.ylo(i) + lr.yhi(i)) / 2
      state.offer(objective.score(BruteForce.evalPoint(lr, spec, px, py)), px, py)
      i += step
    }
  }
}
