package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions.{col, count, lit, sum}
import repro.core._
import repro.harness.WorkloadContext
import repro.layout.{BlockStats, Evaluator}
import repro.sparkext.Router
import repro.woodblock.{Woodblock, WoodblockConfig}
import repro.workload.{ErrorLog, TpchDenorm, TpchWorkload}

/** Qd-tree layout lifecycle on one workload: setup (generate, encode,
  * cache, expected counts), build (sample + Greedy or WOODBLOCK), ingest
  * (route + write BID-partitioned Parquet + per-block stats) and routed
  * queries. Every stage is timed from outside, around public calls.
  *
  * Usage: Lifecycle --workload W --seed N --seconds S --trace 0|1
  *                  --threads T --work DIR --out FILE
  * (perfbench/run.py builds the classpath and passes these.)
  */
object Lifecycle {

  /** One benchmark workload. The benchmark seed draws the table; seeds are
    * spread by `SeedStride` so that two benchmark seeds never share generator
    * streams. The query set is fixed per workload, like a recorded query log,
    * and sampling and WOODBLOCK use fixed seeds, so that run-to-run spread
    * comes from the data and the machine only. WOODBLOCK takes seed r in
    * timed round r, and access % is the mean over the rounds' layouts, so
    * that one lucky or unlucky RL trajectory does not set it.
    */
  final case class Spec(
      name: String,
      /** rows collected for construction (the Greedy store or RL sample) */
      storeRows: Int,
      /** queries the closed loop runs, spread evenly over the query set; at
        * least 100, so that p90 has at least ten samples beyond it
        */
      loopQueries: Int,
      woodblock: Boolean,
      make: (SparkSession, Long) => (DataFrame, TableMeta, IndexedSeq[Query]))

  val SeedStride = 100000L
  val SampleSeed = 7L
  val TableRows = 50000
  /** Minimum block size b in table rows, scaled to the store: at most
    * TableRows / BlockRows = 24 blocks.
    */
  val BlockRows = 2048
  val WoodblockEpisodes = 128
  val WoodblockUpdateEvery = 8
  val RlSampleRows = 5000
  /** Timed rounds after the warm-up pass. Every round builds, ingests and
    * runs its share of the query loop, and every `SetupEvery`-th round
    * starts with a new setup. Each stage's samples are thus spread over the
    * whole run, so that a slow spell of the shared machine (its speed swings
    * by up to 1.6x for seconds at a time) touches few of them, and stage
    * times are medians over the rounds.
    */
  val Rounds = 6
  val SetupEvery = 3
  val WarmupQueries = 3
  val WarmupIngests = 2
  /** Untimed builds on a small sample, repeated for this long, so that the
    * JIT has compiled the tree builder before the timed builds; after a
    * single warm-up build the timed builds still got faster all through a
    * run.
    */
  val WarmupBuildMs = 2000
  val WarmupStoreRows = 2000
  /** Partitions of generated data: the generators draw rand(seed) per
    * partition, so this fixes the data (and access %) independent of cores.
    */
  val DataPartitions = 4
  val ShufflePartitions = 8

  val specs: Map[String, Spec] = Seq(
    // The whole query set: with 100 of its 150 queries, p90 fell at the edge
    // of the slowest templates and moved by 18% between seeds.
    Spec("tpch-greedy", storeRows = 10000, loopQueries = 150, woodblock = false,
      make = (spark, seed) => {
        val (df, meta) = Encoder.encode(
          TpchDenorm.monthBuild(spark, TableRows, seed * SeedStride), TpchDenorm.specs, TpchDenorm.advCuts)
        (df, meta, TpchWorkload.queries(meta, seedsPerTemplate = 10,
          litDomains = TpchDenorm.fullDateDomain))
      }),
    Spec("errlog-int-woodblock", storeRows = RlSampleRows, loopQueries = 100, woodblock = true,
      make = (spark, seed) =>
        (ErrorLog.intTable(spark, TableRows, 11 + seed * SeedStride), ErrorLog.intMeta,
          ErrorLog.intQueries(400)))
  ).map(s => s.name -> s).toMap

  // ---------------------------------------------------------------- timing

  private def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Nearest-rank percentile. */
  def pct(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }
  def median(xs: Seq[Double]): Double = pct(xs, 0.5)
  def mean(xs: Seq[Double]): Double = xs.sum / xs.length

  // ----------------------------------------------------------------- stages

  /** `loop` indexes the queries the closed loop runs; `expected` holds their
    * exact row counts.
    */
  final case class Setup(ctx: WorkloadContext, loop: IndexedSeq[Int], expected: Array[Long], rows: Long,
                         encodeMs: Double)

  def setup(spark: SparkSession, spec: Spec, seed: Long): Setup = {
    val ((df, meta, queries, rows), encodeMs) = timed {
      val (raw, meta, qs) = spec.make(spark, seed)
      val cached = raw.cache()
      (cached, meta, qs, cached.count())
    }
    val ctx = WorkloadContext(spec.name, df, meta, queries, baseline = "")
    require(queries.length >= spec.loopQueries, s"need ${spec.loopQueries} queries, got ${queries.length}")
    val loop = (0 until spec.loopQueries).map(_ * queries.length / spec.loopQueries)
    val expected = Evaluator.matchingRows(df, meta, loop.map(ctx.w))
    Setup(ctx, loop, expected, rows, encodeMs)
  }

  def scaledB(store: ColumnStore, rows: Long): Int =
    math.max(2, math.ceil(BlockRows.toDouble * store.n / rows).toInt)

  def sample(s: Setup, storeRows: Int): ColumnStore =
    Encoder.collect(s.ctx.df, s.ctx.meta, fraction = math.min(1.0, storeRows.toDouble / s.rows),
      seed = SampleSeed, maxRows = storeRows)

  def woodblockConfig(b: Int, updateEvery: Int = WoodblockUpdateEvery, seed: Long = 0): WoodblockConfig =
    WoodblockConfig(b = b, episodes = WoodblockEpisodes, updateEvery = updateEvery, seed = seed)

  /** The WOODBLOCK seed of timed round `r` (Greedy takes none). */
  def rlSeed(spec: Spec, r: Int): Long = if (spec.woodblock) r.toLong else 0L

  def buildTree(spec: Spec, s: Setup, store: ColumnStore, rlSeed: Long = 0): QdTree = {
    val b = scaledB(store, s.rows)
    if (spec.woodblock) Woodblock.train(store, s.ctx.w, s.ctx.cuts, woodblockConfig(b, seed = rlSeed)).best.tree
    else Greedy.build(store, s.ctx.w, s.ctx.cuts, b).tree
  }

  final case class Build(store: ColumnStore, tree: QdTree, sampleMs: Double, treeMs: Double)

  final case class Ingest(frozen: QdTree, stats: Map[Int, (Long, NodeDesc)], writeMs: Double, statsMs: Double)

  def ingest(spark: SparkSession, s: Setup, tree: QdTree, path: String): Ingest = {
    val (_, writeMs) = timed(Router.writePartitioned(s.ctx.df, tree, path))
    val (stats, statsMs) = timed(BlockStats.compute(spark.read.parquet(path), s.ctx.meta, s.ctx.queried))
    val frozen = tree.withTightenedLeaves(stats.map { case (b, (_, d)) => b -> d },
      stats.map { case (b, (n, _)) => b -> n })
    Ingest(frozen, stats, writeMs, statsMs)
  }

  final case class QueryRun(totalMs: Double, routeUs: Double, openMs: Double, execMs: Double,
                            keptBlocks: Int, blocks: Int, files: Long, bytes: Long, rows: Long)

  private object Plans extends AdaptiveSparkPlanHelper

  /** One routed query: blockIds → queryRouted → aggregate → collect. Scan
    * metrics come from the executed plan of that same aggregation.
    */
  def runQuery(spark: SparkSession, path: String, tree: QdTree, q: QExpr, expected: Long): QueryRun = {
    val t0 = System.nanoTime()
    val bids = tree.blockIds(q)
    val t1 = System.nanoTime()
    val routed = Router.queryRouted(spark, path, tree, q)
    val t2 = System.nanoTime()
    val agg = routed.agg(count(lit(1)).as("cnt"), sum(col(routed.columns.head)).as("s"))
    val got = agg.collect()(0).getLong(0)
    val t3 = System.nanoTime()
    if (got != expected) throw new IllegalStateException(s"routed count $got != expected $expected for $q")
    val scans = Plans.collect(agg.queryExecution.executedPlan) { case s: FileSourceScanExec => s }
    def metric(name: String) = scans.map(_.metrics(name).value).sum
    QueryRun((t3 - t0) / 1e6, (t1 - t0) / 1e3, (t2 - t1) / 1e6, (t3 - t2) / 1e6,
      bids.size, tree.numLeaves, metric("numFiles"), metric("filesSize"), metric("numOutputRows"))
  }

  // ------------------------------------------------------------------- main

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val spec = specs.getOrElse(opts("workload"),
      sys.error(s"unknown workload ${opts("workload")}; known: ${specs.keys.mkString(", ")}"))
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val work = new File(opts("work")).getAbsoluteFile
    val threads = opts("threads").toInt

    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("qdtree-perfbench")
      .config("spark.default.parallelism", DataPartitions.toLong)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    try {
      val result = run(spark, spec, seed, seconds, trace, work, threads)
      val out = new PrintWriter(opts("out"))
      try out.println(result) finally out.close()
    } finally spark.stop()
  }

  def run(spark: SparkSession, spec: Spec, seed: Long, seconds: Double, trace: Boolean,
          work: File, threads: Int): String = {
    var attempted = 0L
    var failed = 0L
    // Wall seconds of the warm-up pass and of the timed rounds, for the record.
    val stageS = scala.collection.mutable.LinkedHashMap[String, Double]()
    var mark = System.nanoTime()
    def stage(name: String): Unit = {
      val now = System.nanoTime(); stageS(name) = (now - mark) / 1e9; mark = now
    }
    val path = new File(work, "layout").getPath

    // Every stage works on the table of the latest setup.
    var s: Setup = null
    def newSetup(): Double = {
      if (s != null) s.ctx.df.unpersist(blocking = true)
      val (r, ms) = timed(setup(spark, spec, seed)); s = r; ms
    }
    def newBuild(rlSeed: Long): Build = {
      val (store, sampleMs) = timed(sample(s, spec.storeRows))
      val (tree, treeMs) = timed(buildTree(spec, s, store, rlSeed))
      attempted += 1
      Build(store, tree, sampleMs, treeMs)
    }
    def newIngest(tree: QdTree): Ingest = {
      val r = ingest(spark, s, tree, path)
      attempted += 1
      if (r.stats.values.map(_._1).sum != s.rows) failed += 1
      r
    }
    def loopQuery(i: Int, tree: QdTree): QueryRun = {
      val k = i % s.loop.length
      runQuery(spark, path, tree, s.ctx.w(s.loop(k)), s.expected(k))
    }

    // 1. warm-up pass in the cold JVM: a setup (timed, one of the setup
    // samples), then untimed builds on a small sample, ingests and queries.
    val coldSetupMs = newSetup()
    val coldEncodeMs = s.encodeMs
    val warmStore = sample(s, WarmupStoreRows)
    val warmUntil = System.nanoTime() + WarmupBuildMs * 1000000L
    var warmTree = buildTree(spec, s, warmStore)
    while (System.nanoTime() < warmUntil) warmTree = buildTree(spec, s, warmStore)
    val warmIngests = (1 to WarmupIngests).map(_ => newIngest(warmTree))
    for (i <- 0 until WarmupQueries)
      scala.util.Try(loopQuery(i * s.loop.length / WarmupQueries, warmIngests.last.frozen))
    stage("warmup")

    // 2. timed rounds. The query loop makes one pass over the loop queries,
    // an equal share per round, and the last round goes on until the loop
    // has run for at least `seconds`.
    val setupBuf = scala.collection.mutable.ArrayBuffer((coldSetupMs, coldEncodeMs))
    val buildBuf = scala.collection.mutable.ArrayBuffer[Build]()
    val ingestBuf = scala.collection.mutable.ArrayBuffer[Ingest]()
    val evalBuf = scala.collection.mutable.ArrayBuffer[(Evaluator.Result, Double)]()
    val runBuf = scala.collection.mutable.ArrayBuffer[QueryRun]()
    var queryNs = 0L
    var i = 0
    for (r <- 0 until Rounds) {
      // Garbage of the previous round is collected outside the timings.
      System.gc()
      if (r % SetupEvery == 0) setupBuf += ((newSetup(), s.encodeMs))
      buildBuf += newBuild(rlSeed(spec, r))
      ingestBuf += newIngest(buildBuf.last.tree)
      evalBuf += timed(Evaluator.evaluateStats(ingestBuf.last.stats, s.ctx.meta, s.ctx.w))
      val end = (r + 1) * s.loop.length / Rounds
      while (i < end || (r == Rounds - 1 && queryNs < seconds * 1e9)) {
        attempted += 1
        val t0 = System.nanoTime()
        try runBuf += loopQuery(i, ingestBuf.last.frozen)
        catch { case e: Exception => failed += 1; Console.err.println(s"query ${s.loop(i % s.loop.length)} failed: $e") }
        queryNs += System.nanoTime() - t0
        i += 1
      }
    }
    // Every build of the same data with the same seed must give the same tree
    // (WOODBLOCK's are checked across runs: each round has its own seed).
    failed += buildBuf.zipWithIndex.groupBy { case (_, r) => rlSeed(spec, r) }.values
      .map(_.map(_._1.tree.render).distinct.length - 1).sum
    val (setupMs, builds, ingests, evals, runs) =
      (setupBuf.toSeq, buildBuf.toSeq, ingestBuf.toSeq, evalBuf.toSeq, runBuf.toSeq)
    stage("rounds")
    val ctx = s.ctx
    val store = builds.last.store
    val accessPct = mean(evals.map(_._1.accessPercent))
    val env = Seq(
      "workload" -> q(spec.name), "seed" -> seed.toString,
      "cores" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_threads" -> threads.toString,
      "data_partitions" -> DataPartitions.toString,
      "shuffle_partitions" -> ShufflePartitions.toString,
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "rows" -> s.rows.toString, "store_rows" -> store.n.toString,
      "cuts" -> ctx.cuts.length.toString, "queries" -> ctx.w.length.toString,
      "episodes" -> (if (spec.woodblock) WoodblockEpisodes else 0).toString,
      "leaves" -> builds.map(_.tree.numLeaves).mkString("[", ", ", "]"),
      "blocks" -> ingests.map(_.stats.size).mkString("[", ", ", "]"),
      "access_pct" -> evals.map(_._1.accessPercent).mkString("[", ", ", "]"),
      "query_samples" -> runs.length.toString,
      "stage_s" -> stageS.map { case (k, v) => s"${q(k)}: $v" }.mkString("{", ", ", "}"),
      "query_loop_s" -> (queryNs / 1e9).toString,
      // Per round; the warm-up first where it was timed.
      "setup_reps_s" -> setupMs.map(_._1).map(_ / 1000).mkString("[", ", ", "]"),
      "build_reps_s" -> builds.map(b => (b.sampleMs + b.treeMs) / 1000).mkString("[", ", ", "]"),
      "ingest_reps_s" -> (warmIngests ++ ingests).map(r => (r.writeMs + r.statsMs) / 1000).mkString("[", ", ", "]"))
    println("ENV " + env.map { case (k, v) => s"${q(k)}: $v" }.mkString("{", ", ", "}"))

    val metrics: Seq[(String, Double, String)] =
      if (!trace) {
        val lat = runs.map(_.totalMs)
        Seq(
          ("setup_s", median(setupMs.map(_._1)) / 1000, "s"),
          ("build_s", median(builds.map(b => b.sampleMs + b.treeMs)) / 1000, "s"),
          ("ingest_rows_per_s", s.rows / (median(ingests.map(r => r.writeMs + r.statsMs)) / 1000), "rows/s"),
          ("query_p50_ms", median(lat), "ms"),
          ("query_p90_ms", pct(lat, 0.9), "ms"),
          ("access_pct", accessPct, "%"),
          ("rows_read_pct", 100.0 * runs.map(_.rows).sum / (s.rows.toDouble * runs.length), "%"))
      } else traced(spec, s, store, path, setupMs.map(_._2), builds, ingests, evals.map(_._2), runs)

    val ms = metrics.map { case (n, v, u) => s"${q(n)}: {${q("value")}: $v, ${q("unit")}: ${q(u)}}" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": ${ms.mkString("{", ", ", "}")}}"""
  }

  /** Per-layer metrics. The builder the workload's end-to-end path does not
    * use (WOODBLOCK on Greedy workloads, Greedy on the WOODBLOCK workload) is
    * run here on the same data, outside the end-to-end path.
    */
  def traced(spec: Spec, s: Setup, store: ColumnStore, path: String, encodeMs: Seq[Double],
             builds: Seq[Build], ingests: Seq[Ingest], evalMs: Seq[Double],
             runs: Seq[QueryRun]): Seq[(String, Double, String)] = {
    val ctx = s.ctx
    val (_, cutMs) = timed(ctx.cuts.map(store.evalPred))
    val treeMs = median(builds.map(_.treeMs))
    val (greedyLeaves, greedyMs) =
      if (spec.woodblock) {
        val (r, ms) = timed(Greedy.build(store, ctx.w, ctx.cuts, scaledB(store, s.rows)))
        (r.tree.numLeaves, ms)
      } else (builds.last.tree.numLeaves, treeMs)
    val rlStore = if (spec.woodblock) store else sample(s, RlSampleRows)
    val rlB = scaledB(rlStore, s.rows)
    val (wbLeaves, wbMs) =
      if (spec.woodblock) (builds.last.tree.numLeaves, treeMs)
      else {
        val (r, ms) = timed(Woodblock.train(rlStore, ctx.w, ctx.cuts, woodblockConfig(rlB)))
        (r.best.tree.numLeaves, ms)
      }
    val (_, rolloutMs) = timed(Woodblock.train(rlStore, ctx.w, ctx.cuts,
      woodblockConfig(rlB, updateEvery = WoodblockEpisodes + 1)))
    val parquet = Option(new File(path).listFiles).toSeq.flatten.filter(_.isDirectory)
      .flatMap(_.listFiles).filter(_.getName.endsWith(".parquet"))
    Seq(
      ("encode.ms", median(encodeMs), "ms"),
      ("sample.ms", median(builds.map(_.sampleMs)), "ms"),
      ("sample.rows", store.n.toDouble, "rows"),
      ("cutmask.ms", cutMs, "ms"),
      ("cutmask.cuts", ctx.cuts.length.toDouble, "count"),
      ("greedy.ms", greedyMs, "ms"),
      ("greedy.leaves", greedyLeaves.toDouble, "count"),
      ("woodblock.ms", wbMs, "ms"),
      ("woodblock.episodes_per_s", WoodblockEpisodes / (wbMs / 1000), "1/s"),
      ("woodblock.leaves", wbLeaves.toDouble, "count"),
      ("woodblock.rollout_only_ms", rolloutMs, "ms"),
      ("ingest.write_ms", median(ingests.map(_.writeMs)), "ms"),
      ("ingest.files", parquet.length.toDouble, "count"),
      ("ingest.bytes", parquet.map(_.length).sum.toDouble, "bytes"),
      ("blockstats.ms", median(ingests.map(_.statsMs)), "ms"),
      ("evaluate.ms", median(evalMs), "ms"),
      ("route_query.us_p50", median(runs.map(_.routeUs)), "us"),
      ("route_query.kept_blocks_pct", 100.0 * mean(runs.map(r => r.keptBlocks.toDouble / r.blocks)), "%"),
      ("router.open_ms_p50", median(runs.map(_.openMs)), "ms"),
      ("scan.exec_ms_p50", median(runs.map(_.execMs)), "ms"),
      ("scan.files", mean(runs.map(_.files.toDouble)), "count"),
      ("scan.bytes", mean(runs.map(_.bytes.toDouble)), "bytes"),
      ("scan.rows", mean(runs.map(_.rows.toDouble)), "rows"))
  }

  private def q(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
}
